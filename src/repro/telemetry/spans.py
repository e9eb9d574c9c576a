"""Span tracing: a run → process → syscall → analysis span tree.

Every span carries *two* clocks — the kernel's virtual tick counter (one
tick per guest instruction, the time base of the paper's figures) and the
host wall clock (what the overhead study measures).  Finished traces
export as JSONL (one span per line) or as Chrome trace-event JSON, which
loads directly in Perfetto / ``chrome://tracing``.

One tracer records one monitored machine.  A trace of several runs
(``repro table --trace``, ``repro fleet --trace``, chaos trials) is
written from each run's span dicts by :func:`chrome_trace`: every run
is a *track*, rendered as a Chrome "process" labelled with its workload
name, and guest pids become Chrome "threads" within the track.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Span categories, outermost to innermost.
CATEGORY_RUN = "run"
CATEGORY_PROCESS = "process"
CATEGORY_SYSCALL = "syscall"
CATEGORY_ANALYSIS = "analysis"


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_tick: int
    start_wall: float
    tid: int = 0
    end_tick: Optional[int] = None
    end_wall: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_wall is not None

    @property
    def duration_wall(self) -> float:
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    @property
    def duration_ticks(self) -> int:
        if self.end_tick is None:
            return 0
        return self.end_tick - self.start_tick

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "tid": self.tid,
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "duration_wall": self.duration_wall,
            "duration_ticks": self.duration_ticks,
            "attrs": dict(self.attrs),
        }


class SpanTracer:
    """Collects spans; call :meth:`start` / :meth:`end` around work."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 1
        self._epoch = time.perf_counter()

    # -- spans -------------------------------------------------------------
    def start(
        self,
        name: str,
        category: str,
        tick: int,
        parent: Optional[Span] = None,
        tid: int = 0,
        **attrs: object,
    ) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            start_tick=tick,
            start_wall=time.perf_counter() - self._epoch,
            tid=tid,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, tick: int, **attrs: object) -> Span:
        span.end_tick = tick
        span.end_wall = time.perf_counter() - self._epoch
        if attrs:
            span.attrs.update(attrs)
        return span

    def finished(self) -> List[Span]:
        return [s for s in self.spans if s.finished]

    def __len__(self) -> int:
        return len(self.spans)

    # -- export ------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One finished span per line, in start order."""
        return "\n".join(
            json.dumps(span.to_dict(), default=str)
            for span in self.finished()
        )

    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON of this machine, one track."""
        return chrome_trace(
            [(0, "run", [span.to_dict() for span in self.finished()])]
        )

    def write(self, path: str) -> None:
        """Write the trace: ``*.jsonl`` → JSONL, anything else → Chrome."""
        if str(path).endswith(".jsonl"):
            text = self.to_jsonl() + "\n"
        else:
            text = json.dumps(self.to_chrome_trace(), indent=1)
        with open(path, "w") as fh:
            fh.write(text)


def chrome_trace(
    tracks: Iterable[Tuple[int, str, Sequence[Dict[str, object]]]],
) -> Dict[str, object]:
    """Chrome trace-event JSON (Perfetto-loadable) of ``(pid, label,
    span dicts)`` tracks.

    Each track becomes a Chrome "process" named ``label``; its spans
    (:meth:`Span.to_dict` shapes) become ``ph: "X"`` complete events on
    thread ``tid`` (the guest pid).  Timestamps are wall microseconds
    relative to the run's tracer epoch; the virtual tick range travels
    in ``args``.
    """
    events: List[Dict[str, object]] = []
    for pid, label, spans in tracks:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })
        for span in spans:
            args: Dict[str, object] = {
                "start_tick": span["start_tick"],
                "end_tick": span["end_tick"],
                "span_id": span["span_id"],
            }
            if span.get("parent_id") is not None:
                args["parent_id"] = span["parent_id"]
            for key, value in (span.get("attrs") or {}).items():
                args[key] = value if isinstance(
                    value, (int, float, bool)
                ) else str(value)
            events.append({
                "name": span["name"],
                "cat": span["category"],
                "ph": "X",
                "ts": float(span["start_wall"]) * 1e6,
                "dur": float(span["duration_wall"]) * 1e6,
                "pid": pid,
                "tid": span["tid"],
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
