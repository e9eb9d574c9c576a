"""Deterministic fault injection for the HTH stack.

A :class:`FaultInjector` sits at the kernel boundary and perturbs a run —
transient syscall stalls, guest-visible errno faults, socket resets, DNS
failures, scheduler quantum jitter — all derived from one integer seed, so
any chaos failure reproduces bit-for-bit from the seed recorded in the
:class:`~repro.core.report.RunReport`.

See ``docs/robustness.md`` for the fault model and the determinism
contract.
"""

from repro.faultinject.plan import (
    FaultKind,
    FaultProfile,
    InjectedFault,
    SEMANTIC_PROFILE,
    TRANSPARENT_PROFILE,
)
from repro.faultinject.injector import FaultInjector
from repro.faultinject.harness import (
    ChaosResult,
    ChaosTrial,
    chaos_seeds,
    run_chaos_suite,
)
from repro.faultinject.daemon import (
    ChaosMonkey,
    DaemonChaosProfile,
    ServeChaosOutcome,
    ServeChaosResult,
    run_serve_chaos,
)

__all__ = [
    "ChaosMonkey",
    "DaemonChaosProfile",
    "ServeChaosOutcome",
    "ServeChaosResult",
    "run_serve_chaos",
    "FaultKind",
    "FaultProfile",
    "InjectedFault",
    "FaultInjector",
    "TRANSPARENT_PROFILE",
    "SEMANTIC_PROFILE",
    "ChaosResult",
    "ChaosTrial",
    "chaos_seeds",
    "run_chaos_suite",
]
