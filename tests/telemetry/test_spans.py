"""Span tracer: tree structure, clocks, export formats."""

import json

from repro.telemetry import (
    CATEGORY_PROCESS,
    CATEGORY_RUN,
    CATEGORY_SYSCALL,
    SpanTracer,
)
from repro.telemetry.spans import chrome_trace


def _small_trace():
    tracer = SpanTracer()
    run = tracer.start("kernel.run", CATEGORY_RUN, tick=0)
    proc = tracer.start(
        "pid1 /bin/x", CATEGORY_PROCESS, tick=0, parent=run, tid=1,
        command="/bin/x",
    )
    sc = tracer.start(
        "SYS_open", CATEGORY_SYSCALL, tick=5, parent=proc, tid=1, sysno=5
    )
    tracer.end(sc, tick=6)
    tracer.end(proc, tick=10, exit_code=0)
    tracer.end(run, tick=10)
    return tracer


class TestSpanTree:
    def test_parenting_and_ids(self):
        tracer = _small_trace()
        run, proc, sc = tracer.spans
        assert run.parent_id is None
        assert proc.parent_id == run.span_id
        assert sc.parent_id == proc.span_id

    def test_two_clocks(self):
        tracer = _small_trace()
        run, proc, sc = tracer.spans
        assert sc.category == CATEGORY_SYSCALL
        assert sc.duration_ticks == 1
        assert sc.duration_wall >= 0
        assert sc.start_wall >= 0  # relative to the tracer epoch

    def test_unfinished_span_excluded_from_finished(self):
        tracer = SpanTracer()
        tracer.start("open-ended", CATEGORY_RUN, tick=0)
        assert len(tracer) == 1
        assert tracer.finished() == []

    def test_end_merges_attrs(self):
        tracer = SpanTracer()
        span = tracer.start("s", CATEGORY_SYSCALL, tick=0, sysno=3)
        tracer.end(span, tick=1, blocked=False)
        assert span.attrs == {"sysno": 3, "blocked": False}


class TestExport:
    def test_jsonl_one_finished_span_per_line(self):
        tracer = _small_trace()
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert {p["category"] for p in parsed} == {
            "run", "process", "syscall"
        }
        assert all("duration_wall" in p for p in parsed)

    def test_chrome_trace_schema(self):
        trace = _small_trace().to_chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta and meta[0]["name"] == "process_name"
        assert len(complete) == 3
        for event in complete:
            assert set(event) >= {
                "name", "cat", "ts", "dur", "pid", "tid", "args"
            }
            assert event["ts"] >= 0 and event["dur"] >= 0
        syscall = next(e for e in complete if e["cat"] == "syscall")
        assert syscall["args"]["sysno"] == 5
        assert syscall["args"]["parent_id"] is not None
        assert syscall["tid"] == 1

    def test_chrome_trace_one_track_per_run(self):
        spans = [s.to_dict() for s in _small_trace().finished()]
        trace = chrome_trace([(3, "workload-a", spans),
                              (7, "workload-b", spans[:1])])
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert [(e["pid"], e["args"]["name"]) for e in meta] == [
            (3, "workload-a"), (7, "workload-b")
        ]
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [e["pid"] for e in complete] == [3, 3, 3, 7]
        # one tracer's trace is the same layout, one track
        single = _small_trace().to_chrome_trace()["traceEvents"]
        assert [e["ph"] for e in single] == ["M", "X", "X", "X"]

    def test_chrome_trace_is_json_serializable(self):
        json.dumps(_small_trace().to_chrome_trace())

    def test_write_json_vs_jsonl(self, tmp_path):
        tracer = _small_trace()
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        tracer.write(str(chrome))
        tracer.write(str(jsonl))
        assert "traceEvents" in json.loads(chrome.read_text())
        lines = jsonl.read_text().strip().splitlines()
        assert len(lines) == 3
        json.loads(lines[0])
