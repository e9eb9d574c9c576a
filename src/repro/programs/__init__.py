"""Guest workloads: the paper's evaluation programs, rebuilt for the
mini-ISA (micro-benchmarks, trusted programs, real exploits, macro
benchmarks) plus the guest libc they link against."""

from repro.programs.base import Workload
from repro.programs.extensions import extension_workloads
from repro.programs.libc import LIBC_PATH, LIBC_SOURCE, libc_image
from repro.programs.scenarios import (
    observe_patterns,
    paper_patterns,
    scenario_workloads,
)

__all__ = [
    "Workload",
    "libc_image",
    "LIBC_PATH",
    "LIBC_SOURCE",
    "extension_workloads",
    "scenario_workloads",
    "observe_patterns",
    "paper_patterns",
]
