"""The HTH framework facade (paper Figure 1).

Wires the full stack — simulated kernel, Harrier monitor, Secpert expert
system — and exposes a one-call interface::

    hth = HTH()
    hth.fs.write_text("/etc/secret", "...")
    report = hth.run(program_image, argv=["prog"])
    assert report.verdict is Verdict.HIGH

One HTH instance models one monitored machine; create a fresh instance
per experiment run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Union

from repro.core.engine import EngineCache
from repro.core.options import RunOptions
from repro.core.report import RunReport
from repro.harrier.analyzer import DecisionPolicy, always_continue
from repro.harrier.config import HarrierConfig
from repro.harrier.monitor import Harrier
from repro.isa import blockjit
from repro.isa.assembler import assemble
from repro.isa.image import Image
from repro.kernel.console import Console
from repro.kernel.filesystem import FileSystem
from repro.kernel.kernel import Kernel
from repro.kernel.network import Network
from repro.programs.libc import libc_image
from repro.secpert.policy import PolicyConfig
from repro.secpert.secpert import Secpert
from repro.telemetry import Sampler, Telemetry

#: Paths commonly exec'd by the paper's workloads; HTH pre-registers tiny
#: stub binaries for them so execve targets exist (detection happens at
#: the execve *event*, before the new image runs).
STANDARD_BINARIES = (
    "/bin/sh",
    "/bin/ls",
    "/bin/cat",
    "/bin/date",
    "/bin/su",
    "/bin/ping",
    "/usr/bin/crontab",
    "/usr/sbin/sendmail",
)

_STUB_SOURCE = """
main:
    mov eax, 0
    ret
"""


@lru_cache(maxsize=64)
def stub_binary(path: str) -> Image:
    """A minimal executable that immediately exits successfully,
    assembled once per path (an image is immutable, so every machine
    shares it)."""
    return assemble(path, _STUB_SOURCE)


class HTH:
    """One monitored machine: kernel, Harrier and the analyzer.

    ``options`` (:class:`RunOptions`) is the one place a run's policy,
    monitor config, fault schedule, provenance switch and budgets are
    set.  The other arguments are not configuration: ``decision`` plays
    the paper's interactive user, and ``libraries``, ``analyzer``,
    ``engine`` (a fresh :class:`EngineCache` when not given) and a
    shared ``telemetry`` hub are stateful collaborators.
    ``monitored=False`` runs the guest natively (the §9 baseline).
    """

    def __init__(
        self,
        decision: DecisionPolicy = always_continue,
        libraries: Optional[Sequence[Image]] = None,
        monitored: bool = True,
        analyzer=None,
        telemetry: Optional[Telemetry] = None,
        options: Optional[RunOptions] = None,
        engine: Optional[EngineCache] = None,
    ) -> None:
        options = options if options is not None else RunOptions()
        self.engine = engine if engine is not None else EngineCache()
        self.options = options
        self.policy = options.policy or PolicyConfig()
        if telemetry is None:
            telemetry = options.make_telemetry()
        self.telemetry = telemetry if telemetry is not None else (
            Telemetry.disabled()
        )
        #: Reads the layers' counts into the registry when a run ends.
        self._sampler = (
            Sampler(self.telemetry.metrics)
            if self.telemetry.is_enabled else None
        )
        #: The analysis side: Secpert by default, or any EventAnalyzer
        #: exposing a ``warnings`` list (e.g. the cross-session or
        #: multi-program wrappers).
        self.analyzer = (
            analyzer if analyzer is not None else Secpert(self.policy)
        )
        self.secpert = self.analyzer if isinstance(
            self.analyzer, Secpert
        ) else getattr(self.analyzer, "secpert", None)
        self.harrier = Harrier(
            analyzer=self.analyzer,
            config=options.harrier_config or HarrierConfig(),
            decision=decision,
            interner=self.engine.interner,
            provenance=options.provenance,
        )
        libs = list(libraries) if libraries is not None else [libc_image()]
        hooks = self.harrier if monitored else None
        self.kernel = Kernel(
            hooks=hooks,
            libraries=libs,
            fault_injector=options.make_fault_injector(),
            telemetry=self.telemetry,
            block_cache_store=self.engine.block_caches,
        )
        self.harrier.bind(self.kernel)
        self.harrier.attach_telemetry(self.telemetry)
        attach = getattr(self.analyzer, "attach_telemetry", None)
        if attach is not None:
            attach(self.telemetry)
        if self.harrier.provenance is not None:
            attach_prov = getattr(self.analyzer, "attach_provenance", None)
            if attach_prov is not None:
                attach_prov(self.harrier.provenance)
        for path in STANDARD_BINARIES:
            self.kernel.register_binary(stub_binary(path))

    # -- convenient access to the simulated machine -----------------------
    @property
    def fs(self) -> FileSystem:
        return self.kernel.fs

    @property
    def network(self) -> Network:
        return self.kernel.network

    @property
    def console(self) -> Console:
        return self.kernel.console

    def register_binary(self, image: Image, path: Optional[str] = None) -> str:
        return self.kernel.register_binary(image, path)

    def provide_input(self, data: Union[str, bytes]) -> None:
        self.kernel.console.provide_input(data)

    # -- running ----------------------------------------------------------
    def _sample_metrics(self) -> None:
        """Write the run's counts into the registry: the kernel's (with
        its block caches'), Harrier's and, when it reports to this hub,
        the Secpert engine's; then the block JIT's gauges."""
        layers = [self.kernel, self.harrier]
        secpert = self.secpert
        if secpert is not None and secpert.metrics is self.telemetry.metrics:
            layers.append(secpert.engine)
        self._sampler.sample(layers)
        blockjit.sample_gauges(self.telemetry.metrics)

    def run(
        self,
        program: Union[str, Image],
        argv: Optional[Sequence[str]] = None,
        env: Optional[Dict[str, str]] = None,
        stdin: Optional[Union[str, bytes]] = None,
        max_ticks: Optional[int] = None,
    ) -> RunReport:
        """Spawn ``program``, run to completion, and report.

        The budgets are this machine's ``RunOptions.max_ticks`` and
        ``wall_timeout``.  ``max_ticks``, when given, replaces the tick
        budget for this one run (the §9 native baseline drives a row's
        image on an unmonitored machine this way).
        """
        if max_ticks is None:
            max_ticks = self.options.max_ticks
        # Never extend name-based trust to the monitored program itself:
        # a Trojan installed *as* a trusted shared object (say
        # ``/lib/libc.so``) would otherwise have its own hardcoded
        # strings filtered as "trusted libc data" and sail through the
        # exec-flow rules.  Found by the adversarial rename-paths sweep
        # (docs/adversarial.md); the program is known here, before
        # spawn, so the policy is narrowed per run.
        target = program.name if isinstance(program, Image) else str(program)
        secpert = self.secpert
        if secpert is not None and target in secpert.policy.trusted_binaries:
            secpert.distrust(target)
        if stdin is not None:
            self.provide_input(stdin)
        self.kernel.write_hosts_file()
        proc = self.kernel.spawn(program, argv=argv, env=env)
        result = self.kernel.run(
            max_ticks=max_ticks, wall_timeout=self.options.wall_timeout
        )
        if self._sampler is not None:
            self._sample_metrics()
        injector = self.kernel.fault_injector
        return RunReport(
            program=proc.command,
            argv=tuple(proc.argv),
            result=result,
            warnings=tuple(getattr(self.analyzer, "warnings", ())),
            events=tuple(self.harrier.events),
            console_output=self.kernel.console.output_text(),
            exit_code=proc.exit_code,
            killed_by_monitor=proc.killed_by_monitor,
            faults=tuple(self.kernel.faults()),
            fault_seed=injector.seed if injector is not None else None,
            injected_faults=(
                tuple(injector.injected) if injector is not None else ()
            ),
            events_dropped=self.harrier.events_dropped,
            monitor_faults=tuple(self.harrier.monitor_faults),
            quarantined_rules=tuple(
                getattr(self.analyzer, "quarantined_rules", ())
            ),
            telemetry=(
                self.telemetry.snapshot()
                if self.telemetry.is_enabled
                else None
            ),
            provenance=(
                self.harrier.provenance.summary()
                if self.harrier.provenance is not None
                else None
            ),
        )
