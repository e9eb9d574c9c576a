"""repro.telemetry — metrics, span tracing and the §9 overhead study.

The observability layer for the whole HTH stack.  One :class:`Telemetry`
hub travels from :class:`repro.core.hth.HTH` into the kernel, Harrier,
and Secpert; each layer feeds the hub's

* **metrics registry** — counters/gauges/histograms with labels
  (instructions retired, syscalls by name, Harrier event volumes, taint
  footprint, Secpert rule firings and latencies — the numbers behind the
  paper's Tables 1/8 and §9);
* **span tracer** — a run → process → syscall → analysis span tree with
  virtual-tick *and* wall timestamps, exportable as JSONL or Chrome
  trace-event JSON (Perfetto-loadable).

Disabled telemetry (the default) wires a :class:`NullSink` registry and
a ``None`` tracer so the monitored hot paths pay nothing.  No setting
here changes which code a run executes: an enabled hub observes the
same inlined block path as a disabled one.

The paper's §9 overhead study is not a hub feature: it is measured by
running the guest under each monitor configuration
(:mod:`repro.telemetry.overhead`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullSink,
    merge_sample_lists,
    render_openmetrics,
    render_samples,
)
from repro.telemetry.provenance import (
    EVIDENCE_SCHEMA_VERSION,
    ProvenanceRecorder,
    render_evidence,
)
from repro.telemetry.spans import (
    CATEGORY_ANALYSIS,
    CATEGORY_PROCESS,
    CATEGORY_RUN,
    CATEGORY_SYSCALL,
    Span,
    SpanTracer,
)


@dataclass
class TelemetrySnapshot:
    """A JSON-ready picture of one hub at a point in time."""

    enabled: bool
    metrics: List[Dict[str, object]] = field(default_factory=list)
    span_count: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "metrics": list(self.metrics),
            "span_count": self.span_count,
        }

    def metric(self, name: str, /, **labels: str) -> Optional[float]:
        """Value of one counter/gauge sample, or None."""
        wanted = {k: str(v) for k, v in labels.items()}
        for sample in self.metrics:
            if sample["name"] == name and sample["labels"] == wanted:
                return sample.get("value")
        return None

    def metric_total(self, name: str) -> float:
        """Sum of a metric's samples across label sets."""
        return sum(
            float(s.get("value", 0.0) or 0.0)
            for s in self.metrics
            if s["name"] == name
        )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TelemetrySnapshot":
        """Rebuild a snapshot from its ``to_dict()`` form (the shape a
        fleet worker streams across the process boundary)."""
        return cls(
            enabled=bool(data["enabled"]),
            metrics=list(data["metrics"]),
            span_count=int(data["span_count"]),
        )

    @classmethod
    def merged(
        cls, snapshots: List["TelemetrySnapshot"]
    ) -> "TelemetrySnapshot":
        """Fold many per-run snapshots into one fleet-level snapshot.

        Metric registries merge per :func:`merge_sample_lists` and span
        counts add.  The result is ``enabled`` iff any input was.
        """
        live = [s for s in snapshots if s is not None]
        return cls(
            enabled=any(s.enabled for s in live),
            metrics=merge_sample_lists(s.metrics for s in live),
            span_count=sum(s.span_count for s in live),
        )


class Telemetry:
    """The hub: one registry + optional tracer.

    Build with :meth:`enabled` to measure, :meth:`disabled` (the default
    everywhere) for the zero-overhead null wiring.
    """

    def __init__(
        self,
        metrics=None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else NullSink()
        self.tracer = tracer

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(metrics=NullSink())

    @classmethod
    def enabled(cls, trace: bool = False) -> "Telemetry":
        return cls(
            metrics=MetricsRegistry(),
            tracer=SpanTracer() if trace else None,
        )

    @property
    def is_enabled(self) -> bool:
        return bool(getattr(self.metrics, "enabled", False))

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            enabled=self.is_enabled,
            metrics=self.metrics.samples(),
            span_count=len(self.tracer) if self.tracer is not None else 0,
        )


__all__ = [
    "Telemetry",
    "TelemetrySnapshot",
    "MetricsRegistry",
    "NullSink",
    "merge_sample_lists",
    "render_samples",
    "render_openmetrics",
    "ProvenanceRecorder",
    "render_evidence",
    "EVIDENCE_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanTracer",
    "Span",
    "CATEGORY_RUN",
    "CATEGORY_PROCESS",
    "CATEGORY_SYSCALL",
    "CATEGORY_ANALYSIS",
]
