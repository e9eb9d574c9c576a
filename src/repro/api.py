"""repro.api — the one-import facade over the whole stack.

Benchmarks, tests, the CLI, and the fleet worker entrypoint used to
import five internal modules each (``repro.core.hth``,
``repro.harrier.config``, ``repro.telemetry``, ``repro.faultinject``,
``repro.isa.assembler``) just to run one guest.  This module collapses
that to::

    from repro.api import Session, RunOptions

    session = Session(RunOptions(metrics=True))
    report = session.run(program_image)           # or a source string
    report = session.run_workload(workload)       # a registry row

Everything that configures a run travels in one :class:`RunOptions`
(the session's default, or a per-call override); the other arguments
are collaborators (a shared telemetry hub, a streaming analyzer, a
verdict cache) or describe the guest itself.

A :class:`Session` is a *warm* execution context: it owns an
:class:`~repro.core.engine.EngineCache` (translated-block store +
tag-set interner + assemble memo) that every run it makes reuses.  One
fleet worker builds one Session for all its tasks; sweeps and benchmarks get
the same reuse for free.  Machines are still fresh per run — a Session
never shares kernel, filesystem, monitor, or analyzer state between
runs, so reports remain bit-identical to cold, one-shot execution
(``tests/harrier/test_blockcache_differential.py`` and the fleet
determinism suite hold that line).

Module-level :func:`run` / :func:`run_workload` are one-shot
conveniences that build a throwaway Session.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Union

from repro.cache.digest import CacheEnv, run_key, workload_key
from repro.cache.store import VerdictCache, bypass_reason
from repro.core.engine import EngineCache
from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.core.report import RunReport
from repro.isa.image import Image
from repro.programs.base import Workload
from repro.telemetry import Telemetry

SetupFn = Callable[[HTH], None]


class Session:
    """A warm run context: one options default + one engine cache.

    ``options`` set the session-wide defaults; every ``run*`` call may
    override them for that run.  ``telemetry`` (optional) is a *shared*
    hub sampled by every run — pass it when aggregating one registry
    across a sweep (``repro table --metrics``).  Without a shared hub,
    runs whose options request telemetry get a fresh hub each, and its
    snapshot travels inside the returned report — the shape the fleet
    coordinator merges.
    """

    def __init__(
        self,
        options: Optional[RunOptions] = None,
        telemetry: Optional[Telemetry] = None,
        cache: Optional[VerdictCache] = None,
    ) -> None:
        self.options = options if options is not None else RunOptions()
        self.telemetry = telemetry
        self.engine = EngineCache()
        #: Optional verdict cache (``repro.cache``).  When attached,
        #: cacheable runs are answered from it without executing and
        #: clean fresh reports populate it.  A memory-tier hit is the
        #: very (frozen) report the run that stored it returned.
        #: ``None`` (the default) keeps the historical always-execute
        #: behaviour.
        self.cache = cache
        self.runs = 0

    # -- verdict cache ----------------------------------------------------
    def _cache_key_for(self, options: RunOptions, telemetry, analyzer,
                       opaque_setup: bool = False, key_fn=None):
        """The cache key for a run, or None (with the bypass counted)."""
        if self.cache is None:
            return None
        reason = bypass_reason(
            options,
            telemetry=telemetry if telemetry is not None else self.telemetry,
            analyzer=analyzer,
            opaque_setup=opaque_setup,
        )
        if reason is not None:
            self.cache.bypass(reason)
            return None
        return key_fn()

    # -- machine building --------------------------------------------------
    def machine(
        self,
        options: Optional[RunOptions] = None,
        telemetry: Optional[Telemetry] = None,
        analyzer=None,
    ) -> HTH:
        """A fresh monitored machine wired to this session's warm engine.

        ``analyzer`` overrides the default Secpert instance — the serve
        daemon passes a :class:`repro.serve.streaming.TapAnalyzer` here
        so warnings stream out as they fire.
        """
        options = options if options is not None else self.options
        return HTH(
            telemetry=telemetry if telemetry is not None else self.telemetry,
            options=options,
            engine=self.engine,
            analyzer=analyzer,
        )

    # -- running -----------------------------------------------------------
    def run(
        self,
        program: Union[str, Image],
        argv: Optional[Sequence[str]] = None,
        env: Optional[Dict[str, str]] = None,
        stdin: Optional[Union[str, bytes]] = None,
        setup: Optional[SetupFn] = None,
        options: Optional[RunOptions] = None,
        telemetry: Optional[Telemetry] = None,
        path: Optional[str] = None,
        analyzer=None,
        cache_env: Optional[CacheEnv] = None,
    ) -> RunReport:
        """Run one guest program and report.

        ``program`` is an assembled :class:`Image` or assembly source
        text (assembled through the warm memo as ``path``, default
        ``/bin/guest``).  ``cache_env`` (seeded files + peers) is
        installed into the machine and hashed into the cache key; the
        CLI and the serve worker describe a guest's environment this
        way.  ``setup(hth)`` runs after it, before the guest.  A run
        with a ``setup`` closure is opaque to the verdict cache unless
        ``cache_env`` is given too, which then vouches for it.
        """
        if isinstance(program, str):
            program = self.engine.image(path or "/bin/guest", program)
        key = self._cache_key_for(
            options if options is not None else self.options,
            telemetry, analyzer,
            opaque_setup=(setup is not None and cache_env is None),
            key_fn=lambda: run_key(
                program,
                options if options is not None else self.options,
                argv=argv, env=env, stdin=stdin, cache_env=cache_env,
            ),
        )
        if key is not None:
            hit = self.cache.lookup(key)
            if hit is not None:
                self.runs += 1
                return hit
        hth = self.machine(
            options=options, telemetry=telemetry, analyzer=analyzer,
        )
        if cache_env is not None:
            cache_env.install(hth)
        if setup is not None:
            setup(hth)
        self.runs += 1
        report = hth.run(program, argv=argv, env=env, stdin=stdin)
        if key is not None:
            self.cache.store_report(key, report)
        return report

    def run_workload(
        self,
        workload: Workload,
        options: Optional[RunOptions] = None,
        telemetry: Optional[Telemetry] = None,
        analyzer=None,
    ) -> RunReport:
        """Run one registry :class:`Workload` (its setup/argv/stdin
        included) on this session's warm engine.

        The budgets are ``options.max_ticks`` and ``options.wall_timeout``
        (the cache key hashes both); the row's ``harrier_config`` applies
        when ``options`` carry none.
        """
        options = options if options is not None else self.options
        key = self._cache_key_for(
            options, telemetry, analyzer,
            key_fn=lambda: workload_key(
                workload, options, engine=self.engine
            ),
        )
        if key is not None:
            hit = self.cache.lookup(key)
            if hit is not None:
                self.runs += 1
                return hit
        self.runs += 1
        report = workload.run(
            telemetry=telemetry if telemetry is not None else self.telemetry,
            options=options,
            engine=self.engine,
            analyzer=analyzer,
        )
        if key is not None:
            self.cache.store_report(
                key, report, meta={"workload": workload.name}
            )
        return report


def run(
    program: Union[str, Image],
    options: Optional[RunOptions] = None,
    **kwargs,
) -> RunReport:
    """One-shot :meth:`Session.run` on a throwaway session."""
    return Session(options).run(program, **kwargs)


def run_workload(
    workload: Workload,
    options: Optional[RunOptions] = None,
    **kwargs,
) -> RunReport:
    """One-shot :meth:`Session.run_workload` on a throwaway session."""
    return Session(options).run_workload(workload, **kwargs)


def sweep(**kwargs):
    """Adversarial variant sweep (see :func:`repro.advers.run_sweep`):
    generate seed-deterministic Trojan variants, fan them through the
    fleet engine, and return the detection-rate matrix."""
    from repro.advers import run_sweep  # local: advers drags in the fleet

    return run_sweep(**kwargs)


__all__ = [
    "CacheEnv",
    "Session",
    "RunOptions",
    "RunReport",
    "VerdictCache",
    "run",
    "run_workload",
    "sweep",
]
