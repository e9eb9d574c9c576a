"""Template replay: every block's taint applied transfer by transfer.

Every block's taint goes through the compiled summary applier that
``InstructionDataFlow.install_applier`` caches on the plan (the full
block's, or the executed prefix's), called from ``Harrier.on_block`` or
from a fused block's inlined monitor code.  :func:`template_replay`
patches ``install_applier`` so that the applier it installs replays the
execution from the block's taint templates instead
(:func:`replay_block`) — the reference taint semantics the compiled
summaries must reproduce.  It also runs under
:func:`tests.oracles.jit.record_path`, so every application, zero-taint
blocks included, reaches ``on_block`` and the oracle.

Plans that get a replay applier inside the block have both applier
slots cleared on exit, so a plan that outlives the block (a warm
engine's block cache) compiles its real appliers on next use.  Plans
whose applier was compiled before the block keep it, so run the oracle
on fresh machines.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.harrier.dataflow import InstructionDataFlow
from repro.taint.tags import EMPTY, DataSource, TagSet
from tests.oracles.jit import record_path

_HARDWARE = TagSet.of(DataSource.HARDWARE)


def apply_block(flow: InstructionDataFlow, shadow, rec) -> None:
    """Replay one block record's taint templates over the shadow."""
    replay_block(flow, shadow, rec.plan, rec.executed, rec.holes)


def replay_block(flow: InstructionDataFlow, shadow, plan, n, holes) -> None:
    """Replay the taint templates of ``plan``'s first ``n`` instructions.

    Transfer by transfer, in retirement order, with the transfer shapes
    precompiled: the only per-execution inputs are the dynamic memory
    addresses in ``holes`` (consumed positionally — at most one per
    instruction in this ISA) and the shadow state itself.  ``flow``
    supplies the interner and the image BINARY tags.
    """
    if n == 0:
        return
    taint = plan.taint
    regs = shadow.regs
    rget = regs.get
    rset = regs.set
    memory = shadow.memory
    mget = memory.probe
    mset = memory.set
    union = flow.interner.union
    imm_tags: TagSet = None  # lazily resolved once per block
    cursor = 0
    addr = 0
    for i in range(n):
        tmpl = taint[i]
        if tmpl is None:
            continue
        has_hole, transfers = tmpl
        if has_hole:
            addr = holes[cursor]
            cursor += 1
        for dst_spec, src_specs in transfers:
            tags = EMPTY
            for src in src_specs:
                kind = src[0]
                if kind == "reg":
                    tags = union(tags, rget(src[1]))
                elif kind == "mem?":
                    cell = mget(addr)
                    if cell is not None:
                        tags = union(tags, cell)
                elif kind == "imm":
                    if imm_tags is None:
                        # Blocks never span images (placement leaves
                        # unmapped gaps), so one lookup covers them.
                        image = shadow.code_image.get(plan.start)
                        imm_tags = (
                            flow.binary_tag(image.name)
                            if image is not None
                            else EMPTY
                        )
                    tags = union(tags, imm_tags)
                elif kind == "hardware":
                    tags = union(tags, _HARDWARE)
                # 'zero' contributes nothing
            if dst_spec[0] == "reg":
                rset(dst_spec[1], tags)
            else:
                mset(addr, tags)


@contextmanager
def template_replay(calls=None):
    """Replay every block's taint templates for the duration of the block.

    ``calls``, when given, is a list that gets one ``(plan, executed)``
    entry per replayed application — proof that the oracle, not a
    compiled summary, ran.
    """
    installed = []

    def install_applier(self, plan, executed):
        def replay(shadow, holes):
            if calls is not None:
                calls.append((plan, executed))
            replay_block(self, shadow, plan, executed, holes)

        if executed == plan.length:
            plan.taint_apply = replay
        else:
            if plan.prefix_apply is None:
                plan.prefix_apply = {}
            plan.prefix_apply[executed] = replay
        installed.append(plan)
        return replay

    try:
        with record_path(), mock.patch.object(
            InstructionDataFlow, "install_applier", install_applier
        ):
            yield
    finally:
        for plan in installed:
            plan.taint_apply = None
            plan.prefix_apply = None
