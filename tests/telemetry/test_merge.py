"""Fleet telemetry merging: sample lists and snapshots."""

import json

from repro.telemetry import (
    MetricsRegistry,
    SpanTracer,
    TelemetrySnapshot,
    merge_sample_lists,
    render_samples,
)


def _registry(counter=0, gauge=0.0, observations=()):
    registry = MetricsRegistry()
    if counter:
        registry.counter("work_total", kind="a").inc(counter)
    if gauge:
        registry.gauge("live_pages").set(gauge)
    for value in observations:
        registry.histogram("latency_seconds").observe(value)
    return registry


class TestMergeSampleLists:
    def test_counters_and_gauges_sum(self):
        merged = merge_sample_lists([
            _registry(counter=3, gauge=2.0).samples(),
            _registry(counter=4, gauge=5.0).samples(),
        ])
        by_name = {(s["name"], s["kind"]): s for s in merged}
        assert by_name[("work_total", "counter")]["value"] == 7
        assert by_name[("live_pages", "gauge")]["value"] == 7.0

    def test_histograms_merge_streams(self):
        merged = merge_sample_lists([
            _registry(observations=[0.1, 0.3]).samples(),
            _registry(observations=[0.2]).samples(),
        ])
        (sample,) = merged
        assert sample["count"] == 3
        assert abs(sample["sum"] - 0.6) < 1e-9
        assert sample["min"] == 0.1
        assert sample["max"] == 0.3
        assert abs(sample["mean"] - 0.2) < 1e-9

    def test_label_sets_stay_distinct(self):
        a = MetricsRegistry()
        a.counter("calls", name="open").inc()
        b = MetricsRegistry()
        b.counter("calls", name="close").inc(2)
        merged = merge_sample_lists([a.samples(), b.samples()])
        assert len(merged) == 2

    def test_order_matches_registry_samples(self):
        registry = MetricsRegistry()
        registry.counter("z_total").inc()
        registry.gauge("a_gauge").set(1)
        registry.histogram("m_hist").observe(0.5)
        merged = merge_sample_lists([registry.samples()])
        assert [
            (s["kind"], s["name"]) for s in merged
        ] == [
            (s["kind"], s["name"]) for s in registry.samples()
        ]

    def test_merged_list_renders(self):
        merged = merge_sample_lists([_registry(counter=2).samples()])
        assert "work_total" in render_samples(merged)

    def test_empty_inputs_merge_to_nothing(self):
        assert merge_sample_lists([]) == []
        assert merge_sample_lists([[], []]) == []

    def test_empty_list_merges_with_populated_one(self):
        merged = merge_sample_lists([[], _registry(counter=2).samples()])
        (sample,) = merged
        assert sample["value"] == 2

    def test_disjoint_label_sets_both_survive(self):
        a = MetricsRegistry()
        a.counter("calls_total", name="open", tenant="x").inc()
        b = MetricsRegistry()
        b.counter("calls_total", name="open").inc(5)
        merged = merge_sample_lists([a.samples(), b.samples()])
        values = {
            tuple(sorted(s["labels"].items())): s["value"] for s in merged
        }
        assert values[(("name", "open"), ("tenant", "x"))] == 1
        assert values[(("name", "open"),)] == 5

    def test_matching_histogram_buckets_sum_elementwise(self):
        a = MetricsRegistry()
        a.histogram("lat").observe(0.05)      # <= 0.1 bound
        b = MetricsRegistry()
        b.histogram("lat").observe(0.5)       # <= 1.0 bound
        b.histogram("lat").observe(50.0)      # overflow bucket
        a_counts = a.samples()[0]["bucket_counts"]
        b_counts = b.samples()[0]["bucket_counts"]
        (merged,) = merge_sample_lists([a.samples(), b.samples()])
        assert merged["bucket_counts"] == [
            x + y for x, y in zip(a_counts, b_counts)
        ]
        assert sum(merged["bucket_counts"]) == 3
        assert merged["count"] == 3

    def test_mismatched_histogram_buckets_drop_cleanly(self):
        a = MetricsRegistry()
        a.histogram("lat").observe(0.05)
        b = MetricsRegistry()
        b.histogram("lat").observe(0.4)
        b_samples = b.samples()
        # Simulate a worker on a different bucket ladder.
        b_samples[0]["buckets"] = [0.5]
        b_samples[0]["bucket_counts"] = [1, 0]
        (merged,) = merge_sample_lists([a.samples(), b_samples])
        # Incompatible bucket ladders: summary stats still merge, the
        # bucket view is dropped rather than summed nonsensically.
        assert "buckets" not in merged
        assert "bucket_counts" not in merged
        assert merged["count"] == 2
        assert merged["min"] == 0.05
        assert merged["max"] == 0.4


class TestSpanJsonlExport:
    def test_jsonl_round_trips_span_dicts(self, tmp_path):
        tracer = SpanTracer()
        outer = tracer.start("run", "run", tick=0, program="guest")
        inner = tracer.start("SYS_open", "syscall", tick=3, parent=outer)
        tracer.end(inner, tick=7, errno=0)
        tracer.end(outer, tick=9)
        path = tmp_path / "trace.jsonl"
        tracer.write(str(path))
        lines = path.read_text().strip().splitlines()
        decoded = [json.loads(line) for line in lines]
        assert decoded == [s.to_dict() for s in tracer.finished()]
        by_name = {d["name"]: d for d in decoded}
        assert by_name["SYS_open"]["parent_id"] == by_name["run"]["span_id"]
        assert by_name["SYS_open"]["duration_ticks"] == 4
        assert by_name["SYS_open"]["attrs"]["errno"] == 0

    def test_unfinished_spans_stay_out_of_the_export(self, tmp_path):
        tracer = SpanTracer()
        tracer.start("dangling", "run", tick=0)
        done = tracer.start("done", "run", tick=0)
        tracer.end(done, tick=1)
        path = tmp_path / "trace.jsonl"
        tracer.write(str(path))
        decoded = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert [d["name"] for d in decoded] == ["done"]


class TestSnapshotMerged:
    def _snapshot(self, counter, spans=0):
        registry = _registry(counter=counter)
        return TelemetrySnapshot(
            enabled=True,
            metrics=registry.samples(),
            span_count=spans,
        )

    def test_roundtrip_from_dict(self):
        snapshot = self._snapshot(5, spans=2)
        assert TelemetrySnapshot.from_dict(snapshot.to_dict()) == snapshot

    def test_merged_sums_everything(self):
        merged = TelemetrySnapshot.merged(
            [self._snapshot(1, spans=2), None, self._snapshot(2, spans=3)]
        )
        assert merged.enabled
        assert merged.span_count == 5
        assert merged.metric_total("work_total") == 3

    def test_merged_empty_is_disabled(self):
        merged = TelemetrySnapshot.merged([])
        assert not merged.enabled
        assert merged.metrics == []
