"""Per-quantum scheduling: one quantum per process per scheduler pass.

A process nothing else could preempt runs a slice of
``repro.kernel.kernel.SLICE_QUANTA`` quanta between scheduler passes
(``Kernel._slice_quanta``).  :func:`one_quantum_per_pass` patches that
rule back to a single quantum, so every machine built or run inside the
block is scheduled, and cuts its blocks at quantum ends, as the
round-robin scheduler did before slices.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.kernel.kernel import Kernel


def _one_quantum(kernel: Kernel, proc) -> int:
    return 1


@contextmanager
def one_quantum_per_pass():
    """Give every process one quantum per pass for the block."""
    with mock.patch.object(Kernel, "_slice_quanta", _one_quantum):
        yield
