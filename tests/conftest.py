"""Shared test helpers: assemble-and-run plumbing for guest programs."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import pytest

from repro.core.hth import HTH
from repro.core.report import RunReport
from repro.harrier.blockcache import BlockCacheStore
from repro.isa.assembler import assemble
from repro.kernel.kernel import Kernel
from repro.programs.libc import libc_image


class GuestRunner:
    """Builds an HTH machine per call and runs a small assembly program."""

    def run(
        self,
        source: str,
        path: str = "/bin/test_prog",
        argv: Optional[Sequence[str]] = None,
        env: Optional[Dict[str, str]] = None,
        stdin: Optional[str] = None,
        setup=None,
        hth: Optional[HTH] = None,
        max_ticks: int = 2_000_000,
        **hth_kwargs,
    ) -> RunReport:
        machine = hth or HTH(**hth_kwargs)
        if setup is not None:
            setup(machine)
        report = machine.run(
            assemble(path, source),
            argv=argv,
            env=env,
            stdin=stdin,
            max_ticks=max_ticks,
        )
        self.last_machine = machine
        return report


@pytest.fixture
def guest() -> GuestRunner:
    return GuestRunner()


@pytest.fixture
def bare_kernel() -> Kernel:
    """A kernel with libc but no monitor."""
    return Kernel(BlockCacheStore(), libraries=[libc_image()])
