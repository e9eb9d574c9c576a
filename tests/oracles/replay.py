"""Forced template replay: every block's taint applied transfer by transfer.

``Harrier.on_block`` applies a fully executed block through the compiled
summary applier that ``InstructionDataFlow.install_applier`` caches on
the plan, and falls back to ``InstructionDataFlow.apply_block`` (template
replay) when the applier declines.  :func:`template_replay` patches
``install_applier`` so that every applier declines: the compiled
summaries never run and each block is replayed from its templates — the
reference taint semantics the summaries must reproduce.

Plans translated inside the block carry the declining applier; it is
cleared on exit so a plan that outlives the block (a warm engine's block
cache) compiles its real applier on next use.  Plans whose applier was
compiled before the block keep it, so run the oracle on fresh machines.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.harrier.dataflow import InstructionDataFlow


def _decline(shadow, rec) -> bool:
    return False


@contextmanager
def template_replay():
    """Replay every block's taint templates for the duration of the block."""
    installed = []

    def install_applier(self, plan):
        plan.taint_apply = _decline
        installed.append(plan)
        return _decline

    try:
        with mock.patch.object(
            InstructionDataFlow, "install_applier", install_applier
        ):
            yield
    finally:
        for plan in installed:
            if plan.taint_apply is _decline:
                plan.taint_apply = None
