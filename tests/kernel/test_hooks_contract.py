"""The block-hook contract once fused blocks inline monitor work.

A hook that declares no ``block_instrumentation`` — ``CompositeHooks``,
any plain ``KernelHooks`` subclass — must keep getting one ``on_block``
per executed block while hot blocks fuse; Harrier and ``NullHooks``
opt in, whatever telemetry the run collects.
"""

from repro.baselines.stide import record_trace
from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.isa import assemble, translate
from repro.kernel.hooks import CompositeHooks, KernelHooks, NullHooks
from repro.programs.micro.execflow import table4_workloads
from repro.programs.micro.infoflow import table6_workloads
from tests.oracles import closure_only
from tests.oracles.cachestats import block_cache_stats, kernel_caches

#: Runs its loop body 60 times: well past ``JIT_THRESHOLD``.
HOT_LOOP = """
main:
    mov ecx, 60
loop:
    cmp ecx, 0
    jz done
    mov ebx, eax
    add ebx, ecx
    sub ecx, 1
    jmp loop
done:
    mov eax, 0
    ret
"""


class BlockCounter(KernelHooks):
    """Overrides ``on_block`` only, like a third-party observer."""

    def __init__(self):
        self.records = []

    def on_block(self, proc, rec):
        self.records.append((rec.plan.start, rec.executed))


def _fused(hth):
    return [
        plan
        for cache in kernel_caches(hth.kernel)
        for plan in cache.plans.values()
        if plan.fused is not None
    ]


def _assert_one_record_per_block_entry(hth, counter):
    stats = block_cache_stats(hth.kernel)
    assert len(counter.records) == stats["hits"] + stats["misses"]
    assert sum(n for _, n in counter.records) == hth.kernel.instructions
    assert any(plan.runs >= translate.JIT_THRESHOLD for plan in _fused(hth))


class TestRecordPath:
    def test_composite_child_sees_every_block_while_the_loop_fuses(self):
        hth = HTH()
        counter = BlockCounter()
        hth.kernel.hooks = CompositeHooks([hth.harrier, counter])
        report = hth.run(assemble("/bin/hot", HOT_LOOP))
        assert report.exit_code == 0
        _assert_one_record_per_block_entry(hth, counter)
        assert all(plan.fused_for is None for plan in _fused(hth))
        # Harrier, a child here, applied every block from the records.
        applied = hth.harrier.fastpath_blocks + hth.harrier.slowpath_blocks
        assert applied == len(counter.records)

    def test_plain_subclass_is_not_inlined(self):
        hth = HTH(monitored=False)
        counter = BlockCounter()
        hth.kernel.hooks = counter
        assert hth.run(assemble("/bin/hot", HOT_LOOP)).exit_code == 0
        _assert_one_record_per_block_entry(hth, counter)

    def test_stide_traces_unchanged(self):
        workloads = table4_workloads()[:4] + table6_workloads()[:4]
        inlined = [record_trace(w) for w in workloads]
        with closure_only():
            closures = [record_trace(w) for w in workloads]
        assert inlined == closures
        assert any(inlined)


class TestOptIn:
    def test_harrier_and_null_hooks_inline(self):
        hth = HTH()
        assert hth.run(assemble("/bin/hot", HOT_LOOP)).exit_code == 0
        inst = hth.harrier.block_instrumentation
        assert inst is not None
        assert all(plan.fused_for is inst for plan in _fused(hth))
        # Inlined blocks still count as full-block applications.
        assert hth.harrier.fastpath_blocks > 60

        native = HTH(monitored=False)
        assert isinstance(native.kernel.hooks, NullHooks)
        assert native.run(assemble("/bin/hot", HOT_LOOP)).exit_code == 0
        assert _fused(native) and all(
            plan.fused_for == () for plan in _fused(native)
        )

    def test_metrics_and_trace_keep_the_inlined_path(self):
        # Telemetry observes the production path; no setting of it
        # sends fused blocks back to on_block.
        hth = HTH(options=RunOptions(metrics=True, trace=True))
        assert hth.run(assemble("/bin/hot", HOT_LOOP)).exit_code == 0
        inst = hth.harrier.block_instrumentation
        assert inst is not None and _fused(hth)
        assert all(plan.fused_for is inst for plan in _fused(hth))
        assert hth.harrier.fastpath_blocks > 60
        assert hth.telemetry.tracer.finished()
