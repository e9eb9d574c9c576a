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

from dataclasses import replace
from functools import lru_cache
from typing import Dict, Optional, Sequence, TYPE_CHECKING, Union

from repro.core.options import RunOptions
from repro.core.report import RunReport
from repro.expert import matchgen
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
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import EngineCache
    from repro.faultinject.injector import FaultInjector

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
def _stub_template(path: str) -> Image:
    return assemble(path, _STUB_SOURCE)


def stub_binary(path: str) -> Image:
    """A minimal executable that immediately exits successfully.

    Assembly is cached per path, but every call returns an image with its
    own mutable containers (``data``/``symbols`` dicts): the cache must
    never let one HTH machine's loader state leak into another.  The text
    tuple is shared — instructions are frozen dataclasses, and the loader
    relocates into a copy, never in place.
    """
    template = _stub_template(path)
    return replace(
        template,
        data=dict(template.data),
        symbols=dict(template.symbols),
    )


class HTH:
    def __init__(
        self,
        policy: Optional[PolicyConfig] = None,
        harrier_config: Optional[HarrierConfig] = None,
        decision: DecisionPolicy = always_continue,
        libraries: Optional[Sequence[Image]] = None,
        monitored: bool = True,
        install_stubs: bool = True,
        analyzer=None,
        fault_injector: Optional["FaultInjector"] = None,
        telemetry: Optional[Telemetry] = None,
        options: Optional[RunOptions] = None,
        engine: Optional["EngineCache"] = None,
    ) -> None:
        # ``options`` is the one configuration object (see RunOptions).
        options = options if options is not None else RunOptions()
        self.options = options
        self.policy = policy or options.policy or PolicyConfig()
        if telemetry is None:
            telemetry = options.make_telemetry()
        self.telemetry = telemetry if telemetry is not None else (
            Telemetry.disabled()
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
        config = harrier_config or options.harrier_config or HarrierConfig()
        if not options.provenance and config.provenance:
            # The switch only ever *disables* the evidence recorder; an
            # explicit HarrierConfig(provenance=False) always wins.
            config = replace(config, provenance=False)
        self.harrier = Harrier(
            analyzer=self.analyzer,
            config=config,
            decision=decision,
            interner=engine.interner if engine is not None else None,
        )
        libs = list(libraries) if libraries is not None else [libc_image()]
        hooks = self.harrier if monitored else None
        if fault_injector is None:
            fault_injector = options.make_fault_injector()
        self.fault_injector = fault_injector
        self.kernel = Kernel(
            hooks=hooks,
            libraries=libs,
            fault_injector=fault_injector,
            telemetry=self.telemetry,
            block_cache_store=(
                engine.block_caches if engine is not None else None
            ),
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
        if install_stubs:
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
    def run(
        self,
        program: Union[str, Image],
        argv: Optional[Sequence[str]] = None,
        env: Optional[Dict[str, str]] = None,
        stdin: Optional[Union[str, bytes]] = None,
        max_ticks: Optional[int] = None,
        wall_timeout: Optional[float] = None,
    ) -> RunReport:
        """Spawn ``program``, run to completion, and report.

        ``max_ticks``/``wall_timeout`` default to the budgets carried by
        this machine's :class:`RunOptions`.
        """
        if max_ticks is None:
            max_ticks = self.options.max_ticks
        if wall_timeout is None:
            wall_timeout = self.options.wall_timeout
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
            max_ticks=max_ticks, wall_timeout=wall_timeout
        )
        if self.telemetry.is_enabled:
            self.harrier.sample_state_gauges()
            blockjit.sample_gauges(self.telemetry.metrics)
            matchgen.sample_gauges(self.telemetry.metrics)
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


def run_monitored(
    program: Union[str, Image],
    argv: Optional[Sequence[str]] = None,
    env: Optional[Dict[str, str]] = None,
    stdin: Optional[Union[str, bytes]] = None,
    setup=None,
    policy: Optional[PolicyConfig] = None,
    harrier_config: Optional[HarrierConfig] = None,
    decision: DecisionPolicy = always_continue,
    max_ticks: Optional[int] = None,
    fault_injector: Optional["FaultInjector"] = None,
    wall_timeout: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
    options: Optional[RunOptions] = None,
    engine: Optional["EngineCache"] = None,
) -> RunReport:
    """One-shot convenience: build an HTH machine, run, report.

    ``setup(hth)`` runs before the program (seed files, register peers...).
    """
    hth = HTH(
        policy=policy,
        harrier_config=harrier_config,
        decision=decision,
        fault_injector=fault_injector,
        telemetry=telemetry,
        options=options,
        engine=engine,
    )
    if setup is not None:
        setup(hth)
    return hth.run(
        program,
        argv=argv,
        env=env,
        stdin=stdin,
        max_ticks=max_ticks,
        wall_timeout=wall_timeout,
    )
