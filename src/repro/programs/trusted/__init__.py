"""Trusted-program analogues (paper Table 7)."""

from __future__ import annotations

from typing import List

from repro.programs.base import Workload
from repro.programs.trusted.buildtools import buildtools_workloads
from repro.programs.trusted.coreutils import coreutils_workloads
from repro.programs.trusted.x11 import x11_workloads

_PAPER_ORDER = (
    "ls", "column", "make", "g++", "awk", "pico",
    "tail", "diff", "wc", "bc", "xeyes",
)


def table7_workloads() -> List[Workload]:
    """The eleven trusted programs of the paper's false-positive study,
    in the paper's order (registry key ``"7"``)."""
    pool = {
        w.name: w
        for w in (
            coreutils_workloads()
            + buildtools_workloads()
            + x11_workloads()
        )
    }
    return [pool[name] for name in _PAPER_ORDER]


__all__ = [
    "table7_workloads",
    "coreutils_workloads",
    "buildtools_workloads",
    "x11_workloads",
]
