"""Run reports and verdicts."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.harrier.events import SecurityEvent
from repro.kernel.kernel import RunResult
from repro.secpert.warnings import SecurityWarning, Severity
from repro.telemetry import TelemetrySnapshot

#: Version of the ``RunReport.to_dict()`` wire format.  Fleet result
#: streams and archived report JSON carry this so consumers can detect
#: and adapt to schema evolution; bump it on any breaking change to the
#: dict layout and document the change in ``docs/observability.md``.
#: v2: per-warning ``evidence`` trails + the top-level ``provenance``
#: recorder summary (see :mod:`repro.telemetry.provenance`).
#: v3: the ``telemetry`` snapshot no longer carries a ``profile`` key
#: (the §9 study is measured by :mod:`repro.telemetry.overhead`).
REPORT_SCHEMA_VERSION = 3


class Verdict(enum.Enum):
    """Classification of one monitored run by its strongest warning."""

    BENIGN = "benign"        # no warnings at all
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @classmethod
    def from_severity(cls, severity: Optional[Severity]) -> "Verdict":
        if severity is None:
            return cls.BENIGN
        return {
            Severity.LOW: cls.LOW,
            Severity.MEDIUM: cls.MEDIUM,
            Severity.HIGH: cls.HIGH,
        }[severity]

    @property
    def flagged(self) -> bool:
        return self is not Verdict.BENIGN


@dataclass(frozen=True)
class RunReport:
    """Everything HTH observed about one program run.

    Immutable, with tuple sequence fields, so the verdict cache can hand
    the same object to every hit (:mod:`repro.cache.store`).
    """

    program: str
    argv: Tuple[str, ...]
    result: RunResult
    warnings: Tuple[SecurityWarning, ...]
    events: Tuple[SecurityEvent, ...]
    console_output: str
    exit_code: Optional[int]
    killed_by_monitor: bool = False
    faults: Tuple[Tuple[int, str], ...] = ()
    #: Seed of the fault injector, when the run was chaos-perturbed.
    #: ``repro chaos --seed <this>`` replays the exact fault schedule.
    fault_seed: Optional[int] = None
    #: Faults the injector delivered (InjectedFault records, in order).
    injected_faults: Tuple[object, ...] = ()
    #: Events discarded because the bounded Harrier log overflowed.
    events_dropped: int = 0
    #: Contained monitor-side failures (harrier.monitor.MonitorFault).
    #: Deliberately *not* part of ``warnings``: a monitor fault reports
    #: on the monitor, not the guest, so it must not move the verdict.
    monitor_faults: Tuple[object, ...] = ()
    #: Secpert rules quarantined after raising during this run.
    quarantined_rules: Tuple[str, ...] = ()
    #: Telemetry snapshot (metrics/span count) when the run was
    #: made with an enabled hub; ``None`` for the zero-overhead default.
    telemetry: Optional[TelemetrySnapshot] = None
    #: Provenance recorder summary (token/source/waypoint counts) when
    #: evidence trails were recorded; ``None`` when disabled.
    provenance: Optional[Dict[str, object]] = None

    @property
    def max_severity(self) -> Optional[Severity]:
        if not self.warnings:
            return None
        return max(w.severity for w in self.warnings)

    @property
    def verdict(self) -> Verdict:
        return Verdict.from_severity(self.max_severity)

    @property
    def flagged(self) -> bool:
        return bool(self.warnings)

    def warning_counts(self) -> Dict[str, int]:
        counts = {"LOW": 0, "MEDIUM": 0, "HIGH": 0}
        for warning in self.warnings:
            counts[warning.severity.label()] += 1
        return counts

    def warnings_by_rule(self, rule: str) -> List[SecurityWarning]:
        return [w for w in self.warnings if w.rule == rule]

    def render_warnings(self) -> str:
        return "\n\n".join(w.render() for w in self.warnings)

    @property
    def degraded(self) -> bool:
        """True when the monitor itself took damage during this run."""
        return bool(
            self.monitor_faults
            or self.quarantined_rules
            or self.events_dropped
        )

    def to_dict(self) -> Dict[str, object]:
        """The whole report as JSON-ready primitives (machine-readable
        twin of the markdown report; ``repro report`` writes both)."""
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "program": self.program,
            "argv": list(self.argv),
            "verdict": self.verdict.value,
            "flagged": self.flagged,
            "exit_code": self.exit_code,
            "killed_by_monitor": self.killed_by_monitor,
            "result": {
                "reason": self.result.reason,
                "ticks": self.result.ticks,
                "instructions": self.result.instructions,
                "exit_codes": dict(self.result.exit_codes),
            },
            "warnings": [
                {
                    "rule": w.rule,
                    "severity": w.severity.label(),
                    "headline": w.headline,
                    "pid": w.pid,
                    "time": w.time,
                    "evidence": w.evidence,
                }
                for w in self.warnings
            ],
            "warning_counts": self.warning_counts(),
            "event_count": len(self.events),
            "events_dropped": self.events_dropped,
            "faults": [list(f) for f in self.faults],
            "fault_seed": self.fault_seed,
            "injected_fault_count": len(self.injected_faults),
            "injected_faults": [str(f) for f in self.injected_faults],
            "monitor_faults": [str(f) for f in self.monitor_faults],
            "quarantined_rules": list(self.quarantined_rules),
            "degraded": self.degraded,
            "console_output": self.console_output,
            "telemetry": (
                self.telemetry.to_dict()
                if self.telemetry is not None
                else None
            ),
            "provenance": self.provenance,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def summary_line(self) -> str:
        counts = self.warning_counts()
        graded = " ".join(
            f"{label}={count}" for label, count in counts.items() if count
        )
        extras = []
        if self.fault_seed is not None:
            extras.append(
                f"chaos seed={self.fault_seed} "
                f"faults={len(self.injected_faults)}"
            )
        if self.degraded:
            extras.append("DEGRADED")
        return (
            f"{self.program}: verdict={self.verdict.value}"
            + (f" ({graded})" if graded else "")
            + (f" [{'; '.join(extras)}]" if extras else "")
        )
