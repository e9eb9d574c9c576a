"""RunOptions: the single run-configuration object for the whole stack.

Every layer that executes a guest — :class:`repro.core.hth.HTH`, a
:class:`repro.programs.base.Workload`, the CLI, and the fleet engine —
historically grew its own ad-hoc keyword arguments (telemetry hubs,
fault injectors, tick budgets).
:class:`RunOptions` replaces that sprawl with one frozen, picklable
value object:

* it travels unchanged from a CLI invocation through
  :class:`repro.api.Session` into ``HTH`` — and, because it pickles,
  across process boundaries into fleet workers;
* it is *configuration only*: stateful collaborators (an already-built
  :class:`~repro.telemetry.Telemetry` hub, a shared
  :class:`~repro.core.engine.EngineCache`) stay separate arguments, and
  the factories here (:meth:`RunOptions.make_telemetry`,
  :meth:`RunOptions.make_fault_injector`) build *fresh* per-run state so
  two runs with the same options are independent and deterministic.

There is one execution engine, one taint path and one rule matcher, so
nothing here selects between implementations; the reference semantics
the differential suites compare against live in ``tests/oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, TYPE_CHECKING

from repro.harrier.config import HarrierConfig
from repro.secpert.policy import PolicyConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faultinject.injector import FaultInjector
    from repro.faultinject.plan import FaultProfile
    from repro.telemetry import Telemetry

#: Default virtual-time budget for one run (matches the historical
#: ``HTH.run(max_ticks=...)`` default).
DEFAULT_MAX_TICKS = 5_000_000


@dataclass(frozen=True)
class RunOptions:
    """Everything that configures one monitored run.

    Frozen and picklable: fleet workers receive the coordinator's
    options verbatim, so a fleet run is configured bit-for-bit like
    its serial twin.
    """

    #: Security policy; ``None`` means the default :class:`PolicyConfig`.
    policy: Optional[PolicyConfig] = None
    #: Monitor configuration; ``None`` means the default
    #: :class:`HarrierConfig` (or the workload's own override).
    harrier_config: Optional[HarrierConfig] = None
    #: Record per-warning taint-provenance evidence trails.
    provenance: bool = True
    #: Collect a metrics registry for the run.
    metrics: bool = False
    #: Collect a span trace (implies a metrics registry).
    trace: bool = False
    #: Deterministic chaos: a fault profile plus its schedule seed.  A
    #: fresh :class:`FaultInjector` is built per run, so retries and
    #: replays see the exact same schedule.
    fault_profile: Optional["FaultProfile"] = None
    fault_seed: int = 0
    #: Budgets: virtual-time tick limit and the wall-clock watchdog.
    max_ticks: int = DEFAULT_MAX_TICKS
    wall_timeout: Optional[float] = None
    #: Allow the verdict cache to answer (and remember) this run.  This
    #: is an enable switch, not configuration of the run itself, so it is
    #: the one field *excluded* from the cache-key fingerprint — and note
    #: it only matters where a cache is actually attached (a Session
    #: built with one, a fleet ``cache_dir``, the serve daemon).
    cache: bool = True

    # -- derived -----------------------------------------------------------
    @property
    def wants_telemetry(self) -> bool:
        return bool(self.metrics or self.trace)

    # -- factories (fresh state per run) -----------------------------------
    def make_telemetry(self) -> Optional["Telemetry"]:
        """A fresh enabled hub when any telemetry flag is set, else None."""
        if not self.wants_telemetry:
            return None
        from repro.telemetry import Telemetry

        return Telemetry.enabled(trace=self.trace)

    def make_fault_injector(self) -> Optional["FaultInjector"]:
        """A fresh seeded injector when a fault profile is configured."""
        if self.fault_profile is None:
            return None
        from repro.faultinject.injector import FaultInjector

        return FaultInjector(profile=self.fault_profile, seed=self.fault_seed)

    # -- evolution ---------------------------------------------------------
    def replaced(self, **changes: object) -> "RunOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    def with_faults(
        self, profile: "FaultProfile", seed: int
    ) -> "RunOptions":
        return replace(self, fault_profile=profile, fault_seed=seed)

