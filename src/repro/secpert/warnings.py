"""Warnings and the warning sink (Secpert's advice channel).

Severity levels follow paper section 4: Low / Medium / High, graded by
confidence that the observed behavior is actually malicious.  Warning text
mimics the paper's output format, e.g.::

    Warning [HIGH] Found Write call to .exrc%
    The Data written to this file is originated from the
    BINARY:("/proj/.../a.out")
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Severity(enum.IntEnum):
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    def label(self) -> str:
        return {1: "LOW", 2: "MEDIUM", 3: "HIGH"}[int(self)]


@dataclass(frozen=True)
class SecurityWarning:
    """One piece of Secpert advice to the user."""

    severity: Severity
    rule: str
    headline: str
    details: tuple = ()
    #: The event that triggered it (opaque; a harrier event object).
    event: object = None
    pid: int = 0
    time: int = 0
    #: Provenance evidence (schema-versioned JSON dict, see
    #: :mod:`repro.telemetry.provenance`).  Excluded from equality so the
    #: frozen dataclass stays hashable; still part of ``repr`` so the
    #: differential fingerprints cover it.
    evidence: Optional[dict] = field(default=None, compare=False)

    def render(self) -> str:
        lines = [f"Warning [{self.severity.label()}] {self.headline}"]
        lines.extend(f"\t{d}" for d in self.details)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class WarningSink:
    """Collects warnings; queryable by severity/rule for the benchmarks."""

    def __init__(self) -> None:
        self.warnings: List[SecurityWarning] = []

    def add(self, warning: SecurityWarning) -> None:
        self.warnings.append(warning)

    def __len__(self) -> int:
        return len(self.warnings)

    def __iter__(self):
        return iter(self.warnings)

    def max_severity(self) -> Optional[Severity]:
        if not self.warnings:
            return None
        return max(w.severity for w in self.warnings)

    def counts(self) -> Dict[str, int]:
        out = {"LOW": 0, "MEDIUM": 0, "HIGH": 0}
        for w in self.warnings:
            out[w.severity.label()] += 1
        return out

    def render_all(self) -> str:
        return "\n\n".join(w.render() for w in self.warnings)
