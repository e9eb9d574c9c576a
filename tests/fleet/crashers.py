"""Hostile test workloads: rows that kill or stall their worker.

A normal registry row misbehaves at the *guest* level; these rows
misbehave at the *process* level — ``os._exit`` mid-task (the shape of
a segfault or an OOM kill, unreachable for ``except``) and slow setup
stalls (to hold a worker busy while a drain or a chaos monkey acts).
They live in the test tree, not the package: referencing them through
:class:`~repro.fleet.refs.WorkloadRef` (module ``tests.fleet.crashers``)
also proves refs resolve outside ``repro.programs``.
"""

import os
import time

from repro.programs.base import Workload

_BENIGN_SRC = """
main:
    mov eax, 0
    ret
"""

#: Exit code the crasher dies with (shows up in synthesized records).
CRASH_EXIT_CODE = 23

#: Wall seconds each sleepy row stalls before its (instant) guest run.
SLEEP_SECONDS = 0.3


def _die(hth) -> None:
    # At once: a record the worker sent for its previous task must
    # already be in the coordinator's pipe, with no grace period.
    os._exit(CRASH_EXIT_CODE)


def _nap(hth) -> None:
    time.sleep(SLEEP_SECONDS)


def crasher_workloads():
    """Rows 'worker-killer' / 'worker-killer-2' take their whole worker
    process down mid-task; 'ok-1' … 'ok-4' are plain benign rows."""
    killers = [
        Workload(
            name=name, program_path=f"/bin/{name}",
            source=_BENIGN_SRC, setup=_die,
            description="os._exit mid-task: no sentinel, no record",
        )
        for name in ("worker-killer", "worker-killer-2")
    ]
    return killers + [
        Workload(
            name=f"ok-{i}", program_path=f"/bin/ok{i}", source=_BENIGN_SRC,
            description="plain benign row beside the crash",
        )
        for i in range(1, 5)
    ]


def sleepy_workloads(count: int = 6):
    """``count`` benign rows that each stall SLEEP_SECONDS in setup —
    long enough for a drain signal to land mid-sweep."""
    return [
        Workload(
            name=f"sleepy-{i}", program_path=f"/bin/sleepy{i}",
            source=_BENIGN_SRC, setup=_nap,
            description="stalls in setup, then runs instantly",
        )
        for i in range(count)
    ]
