"""Fleet-level reports: per-run records plus the merged roll-up.

A worker streams one wire dict per finished task (the ``RunReport``
dict, retry history, and optional span dicts); the coordinator rebuilds
them as :class:`FleetRunRecord` and orders them by task index into a
:class:`FleetReport`.  Everything inside ``record.report`` is exactly
what a serial run of the same workload with the same options produces —
wall-clock fields (``elapsed``) and scheduling facts (``worker``,
``attempts``) live *outside* it, which is what lets the determinism
suite compare fleet output against serial bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry import TelemetrySnapshot

#: Version of the ``FleetReport.to_dict()`` wire format (the per-run
#: report dicts inside it carry their own ``schema_version``).
#: v2: added the top-level ``partial`` flag (graceful-shutdown drains
#: emit a report for the work that finished; cancelled tasks appear as
#: error records) and ``summary.cancelled``.
#: v3: dropped the shard-strategy key — placement is one fixed rule,
#: no longer a choice to record.
FLEET_SCHEMA_VERSION = 3

#: Error-text prefix of records synthesized for tasks a drain skipped.
CANCELLED_PREFIX = "cancelled"


@dataclass
class FleetRunRecord:
    """One task's outcome as the coordinator sees it."""

    index: int
    name: str
    #: The worker that ran (or was running) the task; ``-1`` when no
    #: worker was ever handed it.
    worker: int
    attempts: int = 1
    #: Why each non-final attempt was retried ("watchdog",
    #: "monitor-fault", "error"), in attempt order.
    retries: List[str] = field(default_factory=list)
    #: Did the run land on the workload's expected classification?
    ok: Optional[bool] = None
    #: ``RunReport.to_dict()`` of the final attempt (None if every
    #: attempt raised).
    report: Optional[Dict[str, object]] = None
    #: Finished span dicts of the final attempt, when tracing was on.
    spans: Optional[List[Dict[str, object]]] = None
    #: Traceback text when the final attempt raised.
    error: Optional[str] = None
    #: Worker-side wall seconds across all attempts.
    elapsed: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.report is None

    @property
    def cancelled(self) -> bool:
        """True for a record synthesized when a drain skipped the task."""
        return bool(self.error) and self.error.startswith(CANCELLED_PREFIX)

    @property
    def verdict(self) -> Optional[str]:
        if self.report is None:
            return None
        return self.report["verdict"]  # type: ignore[return-value]

    @classmethod
    def from_wire(cls, data: Dict[str, object]) -> "FleetRunRecord":
        return cls(
            index=int(data["index"]),
            name=str(data["name"]),
            worker=int(data["worker"]),
            attempts=int(data.get("attempts", 1)),
            retries=list(data.get("retries") or []),
            ok=data.get("ok"),
            report=data.get("report"),
            spans=data.get("spans"),
            error=data.get("error"),
            elapsed=float(data.get("elapsed", 0.0)),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "name": self.name,
            "worker": self.worker,
            "attempts": self.attempts,
            "retries": list(self.retries),
            "ok": self.ok,
            "report": self.report,
            "error": self.error,
            "elapsed": self.elapsed,
        }


@dataclass
class FleetReport:
    """All task outcomes of one fleet run, in task-index order."""

    workers: int
    max_retries: int
    runs: List[FleetRunRecord] = field(default_factory=list)
    #: Coordinator wall seconds, submit to last result.
    wall_seconds: float = 0.0
    #: Merged telemetry across every run that carried a snapshot.
    telemetry: Optional[TelemetrySnapshot] = None
    #: True when a shutdown signal drained the fleet before every task
    #: ran; the skipped tasks appear as ``cancelled`` error records.
    partial: bool = False
    #: Merged verdict-cache counters across workers, when the fleet ran
    #: with a shared cache (``cache_dir=``); None otherwise.  Optional
    #: addition to the wire schema — absent keys read as no cache.
    cache_stats: Optional[Dict[str, object]] = None

    @property
    def failures(self) -> List[FleetRunRecord]:
        """Runs that errored out or missed their expected classification."""
        return [r for r in self.runs if r.failed or r.ok is False]

    @property
    def cancelled(self) -> List[FleetRunRecord]:
        return [r for r in self.runs if r.cancelled]

    @property
    def retried(self) -> List[FleetRunRecord]:
        return [r for r in self.runs if r.retries]

    @property
    def reports(self) -> List[Optional[Dict[str, object]]]:
        """Per-run report dicts in task order — the bit-identity surface."""
        return [r.report for r in self.runs]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": FLEET_SCHEMA_VERSION,
            "workers": self.workers,
            "max_retries": self.max_retries,
            "wall_seconds": self.wall_seconds,
            "partial": self.partial,
            "runs": [r.to_dict() for r in self.runs],
            "telemetry": (
                self.telemetry.to_dict()
                if self.telemetry is not None
                else None
            ),
            "summary": {
                "total": len(self.runs),
                "failures": len(self.failures),
                "retried": len(self.retried),
                "cancelled": len(self.cancelled),
            },
            "cache": self.cache_stats,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def summary_line(self) -> str:
        partial = (
            f", PARTIAL ({len(self.cancelled)} cancelled by shutdown)"
            if self.partial else ""
        )
        return (
            f"fleet: {len(self.runs)} runs on {self.workers} worker(s) "
            f"in {self.wall_seconds:.2f}s — "
            f"{len(self.failures)} failure(s), "
            f"{len(self.retried)} retried{partial}"
        )
