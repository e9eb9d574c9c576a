"""Block-JIT switches: fuse every block, or never fuse one; trace
every loop, or never trace one; inline the taint applier's steady
state, or always call the applier.

``BlockPlan.execute`` fuses a block into one generated function once
the block has run ``repro.isa.translate.JIT_THRESHOLD`` times in full,
and the kernel makes a fused block the head of a loop trace once it
has run ``repro.isa.blockjit.TRACE_THRESHOLD`` times.  These context
managers patch those module constants, the way
:func:`tests.oracles.template_replay` patches ``install_applier``:

* :func:`fuse_every_block` — threshold 1: every full execution, from a
  block's first, runs generated code (the differential suites use it to
  hold fused execution to the reference interpreter on every block,
  not only the hot ones);
* :func:`closure_only` — no block is ever fused: every instruction runs
  as its per-op function (:func:`repro.isa.blockjit.op_function`, the
  emitter's code for its shape item), the baseline the JIT's perf gate
  compares against.  Per-op and fused code come from one emitter, so
  neither is an independent check of an op's semantics: that is the
  reference interpreter's and the Python model's job
  (``tests/isa/test_properties.py``);
* :func:`record_path` — hot blocks still fuse, but no hook declares a
  block instrumentation, so every execution returns a record and the
  monitor runs in ``on_block`` (the baseline of the inlined monitor's
  perf gate);
* :func:`trace_every_loop` — threshold 0: a fused block is tried as a
  loop-trace head at its first plain exit (the differential suites use
  it to run every traceable cycle as a trace, not only the hot ones);
* :func:`no_traces` — no loop trace ever forms: fused blocks run one
  kernel round trip each, the baseline of the loop traces' perf gate;
* :func:`applier_calls` — fused blocks and loop traces call every
  block's taint applier instead of checking its published steady state
  inline (``BlockPlan.taint_steady`` stays None), the reference the
  inlined hit path must match.

Plans fused or traced inside a block stay so after it (fused, per-op
and traced execution are interchangeable by contract), so run
:func:`closure_only` and :func:`no_traces` on fresh machines.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.harrier.dataflow import InstructionDataFlow
from repro.harrier.monitor import Harrier
from repro.isa import blockjit, translate
from repro.kernel.hooks import NullHooks


@contextmanager
def _threshold(value):
    with mock.patch.object(translate, "JIT_THRESHOLD", value):
        yield


def fuse_every_block():
    """Fuse each block at its first full execution."""
    return _threshold(1)


def closure_only():
    """Never fuse a block: every execution runs the per-op functions."""
    return _threshold(float("inf"))


def trace_every_loop():
    """Try every fused block as a loop-trace head at its first plain
    exit."""
    return mock.patch.object(blockjit, "TRACE_THRESHOLD", 0)


def no_traces():
    """Never form a loop trace."""
    return mock.patch.object(blockjit, "TRACE_THRESHOLD", float("inf"))


@contextmanager
def record_path():
    """Fused guest code, monitor through ``on_block``: Harrier and
    NullHooks declare no block instrumentation."""
    with mock.patch.object(Harrier, "block_instrumentation", None), \
            mock.patch.object(NullHooks, "block_instrumentation", None):
        yield


@contextmanager
def applier_calls(calls=None):
    """Generated code always calls the taint applier: the appliers
    installed inside the block publish no steady state to their plans.

    ``calls``, when given, is a list that gets one ``(plan, executed)``
    entry per applier call.  Plans that get an applier inside the block
    have their applier slots cleared on exit, so they install (and
    publish) afresh on next use.
    """
    install = InstructionDataFlow.install_applier
    installed = []

    def install_applier(self, plan, executed):
        applier = install(self, plan, executed)
        plan.taint_steady = None
        installed.append(plan)
        if calls is None:
            return applier

        def counted(shadow, holes):
            calls.append((plan, executed))
            applier(shadow, holes)

        if executed == plan.length:
            plan.taint_apply = counted
        else:
            plan.prefix_apply[executed] = counted
        return counted

    try:
        with mock.patch.object(InstructionDataFlow, "install_applier",
                               install_applier):
            yield
    finally:
        for plan in installed:
            plan.taint_apply = None
            plan.taint_steady = None
            plan.prefix_apply = None
