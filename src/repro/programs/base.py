"""Workload definitions: guest programs plus their environment and the
classification the paper's evaluation expects.

Every experiment row (Tables 4-8, section 8.4) is a :class:`Workload`:
an assembled guest image, machine setup (files, peers, stdin), and the
expected outcome — so tests and benchmark harnesses share one registry.
A row configures nothing about *how* it runs except a default monitor
config (``harrier_config``, e.g. dataflow off for the perl interpreter,
section 8.4.2); the run's :class:`RunOptions` carry its policy, faults,
provenance switch and budgets, and beat the row's default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.core.options import DEFAULT_MAX_TICKS, RunOptions
from repro.core.report import RunReport, Verdict
from repro.harrier.config import HarrierConfig
from repro.isa.assembler import assemble
from repro.isa.image import Image

SetupFn = Callable[["HTH"], None]  # noqa: F821 - resolved lazily


@dataclass
class Workload:
    """One runnable experiment row."""

    name: str
    #: Guest program path (image name) and assembly source.
    program_path: str
    source: str
    description: str = ""
    setup: Optional[SetupFn] = None
    argv: Optional[List[str]] = None
    env: Dict[str, str] = field(default_factory=dict)
    stdin: Optional[str] = None
    #: The classification the paper's Table reports for this row.
    expected_verdict: Verdict = Verdict.BENIGN
    #: Rules expected to fire at least once (subset check).
    expected_rules: Tuple[str, ...] = ()
    #: Every row runs under its options' budget; this reads the default
    #: for callers that drive a row's image on a machine of their own.
    max_ticks: ClassVar[int] = DEFAULT_MAX_TICKS
    #: The row's default monitor config (e.g. dataflow off for
    #: mw2.2.1), used when the run's options carry none.
    harrier_config: Optional[HarrierConfig] = None
    #: Extra shared objects to load, as (path, assembly source) pairs
    #: (e.g. the untrusted libX11.so the xeyes analogue links against).
    extra_libraries: Tuple[Tuple[str, str], ...] = ()
    #: A known-open evasion: the row is *expected to misclassify* until
    #: the policy/taint fix lands (``repro.programs.adversarial`` files
    #: every discovered evasion as one of these, regression-tracked).
    xfail: bool = False
    #: For generated variants: the :class:`repro.programs.mutate.
    #: MutationRecipe` that produced this row from its parent.
    recipe: Optional[object] = None

    def image(self, engine=None) -> Image:
        if engine is not None:
            return engine.image(self.program_path, self.source)
        return assemble(self.program_path, self.source)

    def build_machine(
        self,
        telemetry=None,
        options: Optional[RunOptions] = None,
        engine=None,
        analyzer=None,
    ) -> "HTH":  # noqa: F821
        """A fresh machine for this row, set up and ready to run.

        The one precedence rule: the caller's ``options`` beat the row's
        defaults, so the row's ``harrier_config`` applies only when
        ``options`` carry none.
        """
        from repro.core.engine import EngineCache
        from repro.core.hth import HTH

        engine = engine if engine is not None else EngineCache()
        options = options if options is not None else RunOptions()
        if options.harrier_config is None and self.harrier_config is not None:
            options = options.replaced(harrier_config=self.harrier_config)
        libraries = None
        if self.extra_libraries:
            from repro.programs.libc import libc_image

            libraries = [libc_image()] + [
                engine.image(path, source)
                for path, source in self.extra_libraries
            ]
        hth = HTH(
            libraries=libraries,
            telemetry=telemetry,
            options=options,
            engine=engine,
            analyzer=analyzer,
        )
        if self.setup is not None:
            self.setup(hth)
        return hth

    def run(
        self,
        harrier_config: Optional[HarrierConfig] = None,
        telemetry=None,
        options: Optional[RunOptions] = None,
        engine=None,
        analyzer=None,
    ) -> RunReport:
        """Run this row; its budgets are ``options.max_ticks`` and
        ``options.wall_timeout``.  ``harrier_config`` is shorthand for
        ``options.replaced(harrier_config=...)``."""
        options = options if options is not None else RunOptions()
        if harrier_config is not None:
            options = options.replaced(harrier_config=harrier_config)
        hth = self.build_machine(
            telemetry=telemetry,
            options=options,
            engine=engine,
            analyzer=analyzer,
        )
        return hth.run(
            self.image(engine=hth.engine),
            argv=self.argv or [self.program_path],
            env=self.env,
            stdin=self.stdin,
        )

    def classified_correctly(self, report: RunReport) -> bool:
        """Did HTH land exactly on the expected verdict and rules?"""
        if report.verdict is not self.expected_verdict:
            return False
        fired = {w.rule for w in report.warnings}
        return all(rule in fired for rule in self.expected_rules)

