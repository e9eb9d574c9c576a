"""The injector: seed-driven interception at the kernel boundary.

The kernel consults the injector at two points:

* :meth:`FaultInjector.before_syscall` — after the monitor's pre-event has
  fired (Harrier always observes the *attempt*) but before the handler
  dispatches.  The injector may raise :class:`WouldBlock` (a transparent
  stall absorbed by the kernel's blocked-retry machinery), or return a
  negative errno that replaces the handler's execution entirely.
* :meth:`FaultInjector.quantum` — each scheduler slice asks for its
  (possibly jittered) instruction budget.

All randomness comes from one ``random.Random(seed)`` consumed in kernel
dispatch order, so a seed fully determines the fault schedule.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.faultinject.plan import FaultKind, FaultProfile, InjectedFault
from repro.kernel import errors
from repro.kernel.errors import WouldBlock
from repro.kernel.process import Process
from repro.kernel.syscalls import SYS_RESOLVE, SYS_SOCKETCALL, syscall_name

Args = Tuple[int, int, int, int, int]

#: Process.meta key marking "this pending syscall already stalled once" —
#: the retry must pass through, or a sole blocked process would deadlock.
_STALLED_KEY = "faultinject.stalled"


class FaultInjector:
    """Deterministic chaos source for one kernel run.

    One injector serves one run; build a fresh one (same seed) to replay.
    """

    def __init__(self, profile: FaultProfile, seed: int) -> None:
        self.profile = profile
        self.seed = seed
        self._rng = random.Random(seed)
        #: Every fault delivered, in injection order (the replay log).
        self.injected: List[InjectedFault] = []

    @property
    def fault_count(self) -> int:
        return len(self.injected)

    def _budget_left(self) -> bool:
        cap = self.profile.max_faults
        return cap is None or self.fault_count < cap

    def _record(self, now: int, pid: int, kind: FaultKind,
                call_name: str, detail: str = "") -> None:
        self.injected.append(
            InjectedFault(time=now, pid=pid, kind=kind,
                          call_name=call_name, detail=detail)
        )

    # -- scheduler hook -----------------------------------------------------
    def quantum(self, base: int) -> int:
        """The (possibly jittered) instruction budget for one slice."""
        jitter = self.profile.quantum_jitter
        if jitter <= 0:
            return base
        factor = 1.0 + self._rng.uniform(-jitter, jitter)
        return max(1, int(base * factor))

    # -- syscall hook -------------------------------------------------------
    def before_syscall(
        self,
        now: int,
        proc: Process,
        sysno: int,
        args: Args,
        info: Dict[str, object],
    ) -> Optional[int]:
        """Decide the fate of one syscall dispatch.

        Returns ``None`` to let the real handler run, a negative errno to
        inject a guest-visible failure, or raises :class:`WouldBlock` to
        stall the call once (transparently retried by the kernel).
        """
        if proc.meta.pop(_STALLED_KEY, False):
            # The retry of a stalled call always proceeds for real.
            return None
        if not self._budget_left():
            return None
        name = str(info.get("name", syscall_name(sysno)))

        if sysno == SYS_SOCKETCALL and info.get("socketcall") == "connect":
            if self._roll(self.profile.connect_reset_rate):
                self._record(now, proc.pid, FaultKind.CONNECT_RESET,
                             f"{name}:connect",
                             str(info.get("addr_str", "?")))
                return -errors.ECONNRESET

        if sysno == SYS_RESOLVE:
            if self._roll(self.profile.resolve_fail_rate):
                self._record(now, proc.pid, FaultKind.RESOLVE_FAIL, name,
                             str(info.get("hostname", "?")))
                return -errors.EHOSTUNREACH

        if sysno in self.profile.errno_syscalls:
            if self._roll(self.profile.errno_rate):
                code = self._rng.choice(self.profile.errno_codes)
                self._record(now, proc.pid, FaultKind.ERRNO, name,
                             errors.errno_name(code))
                return -code

        if sysno in self.profile.stall_syscalls:
            if self._roll(self.profile.stall_rate):
                self._record(now, proc.pid, FaultKind.STALL, name)
                proc.meta[_STALLED_KEY] = True
                raise WouldBlock(f"fault injection stall on {name}")

        return None

    def _roll(self, rate: float) -> bool:
        if rate <= 0:
            return False
        return self._rng.random() < rate
