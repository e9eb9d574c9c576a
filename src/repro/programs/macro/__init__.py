"""Macro benchmarks (paper section 8.4)."""

from __future__ import annotations

from typing import List

from repro.programs.base import Workload
from repro.programs.macro.mw_script import mw_workloads
from repro.programs.macro.pwsafe import pwsafe_workloads
from repro.programs.macro.tictactoe import tictactoe_workloads


def macro_workloads() -> List[Workload]:
    """Every macro-benchmark row (registry key ``"macro"``)."""
    return pwsafe_workloads() + mw_workloads() + tictactoe_workloads()


__all__ = [
    "macro_workloads",
    "pwsafe_workloads",
    "mw_workloads",
    "tictactoe_workloads",
]
