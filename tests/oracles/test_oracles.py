"""The oracles engage while installed and leave production untouched after.

A differential suite is only as strong as its evidence that the oracle
side really ran the reference code; these tests pin that down for each
context manager, plus the restore on exit.
"""

from repro.core.hth import HTH
from repro.expert import InferenceEngine, Pattern, Rule, Template, V
from repro.expert.rete import ReteNetwork
from repro.isa import assemble, translate
from tests.oracles import (
    applier_calls,
    closure_only,
    fuse_every_block,
    naive_matcher,
    no_traces,
    record_path,
    reference_interpreter,
    template_replay,
    trace_every_loop,
)
from tests.oracles.cachestats import block_cache_stats, kernel_caches
from tests.oracles.matcher import NaiveNetwork

LOOP = """
main:
    mov ecx, 6
loop:
    mov ebx, eax
    add ebx, ecx
    sub ecx, 1
    cmp ecx, 0
    jnz loop
    mov eax, 0
    ret
"""


#: A loop that runs past ``JIT_THRESHOLD``: its blocks fuse with the
#: monitor inlined, and one of them (the bare compare-and-branch) moves
#: no tags, so its inlined code applies nothing.
HOT_LOOP = """
main:
    mov ecx, 40
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


#: HOT_LOOP for 20 iterations: its head fuses, but runs too few times
#: after that to be tried as a loop-trace head in production.
WARM_LOOP = HOT_LOOP.replace("mov ecx, 40", "mov ecx, 20")


#: A hot loop of memory-touching blocks: a load and a store each
#: iteration, over cells whose tags stay the same.
MEMORY_LOOP = """
main:
    mov ecx, 60
    mov esi, cell
loop:
    load eax, [esi]
    add eax, ecx
    store [esi+1], eax
    sub ecx, 1
    cmp ecx, 0
    jnz loop
    mov eax, 0
    ret
.data
cell: .space 2
"""


def _run(source=LOOP):
    hth = HTH()
    report = hth.run(assemble("/bin/t", source))
    assert report.exit_code == 0
    return hth


class TestReferenceInterpreter:
    def test_runs_without_the_block_cache(self):
        with reference_interpreter():
            hth = _run()
        stats = block_cache_stats(hth.kernel)
        assert stats["hits"] == stats["misses"] == 0
        assert hth.kernel.instructions > 0
        # Harrier saw every instruction through the oracle, not on_block.
        assert hth.harrier.fastpath_blocks == hth.harrier.slowpath_blocks == 0
        shadow = hth.harrier.shadow(next(iter(hth.kernel.procs.values())))
        assert shadow.bb_counts

    def test_restored_on_exit(self):
        with reference_interpreter():
            pass
        hth = _run()
        assert block_cache_stats(hth.kernel)["misses"] > 0


class TestTemplateReplay:
    def test_every_block_replays(self):
        calls = []
        with template_replay(calls):
            hth = _run()
        applied = hth.harrier.fastpath_blocks + hth.harrier.slowpath_blocks
        assert applied > 0
        assert len(calls) == applied

    def test_every_block_replays_after_it_fuses(self):
        calls = []
        with template_replay(calls):
            hth = _run(HOT_LOOP)
        fused = [plan for plan in _plans(hth) if plan.fused is not None]
        assert len(fused) >= 2
        assert any(plan.taint_summary.is_noop for plan in fused)
        applied = hth.harrier.fastpath_blocks + hth.harrier.slowpath_blocks
        assert applied > 2 * translate.JIT_THRESHOLD
        assert len(calls) == applied

    def test_restored_on_exit(self):
        calls = []
        with template_replay(calls):
            _run()
        replayed = len(calls)
        assert _run().harrier.fastpath_blocks > 0
        assert len(calls) == replayed


class TestApplierCalls:
    def test_every_application_calls_the_applier(self):
        calls = []
        with applier_calls(calls):
            hth = _run(MEMORY_LOOP)
            assert all(plan.taint_steady is None for plan in _plans(hth))
        assert _traced(hth)
        applied = hth.harrier.fastpath_blocks + hth.harrier.slowpath_blocks
        assert applied > 60
        assert len(calls) == applied

    def test_restored_on_exit(self):
        calls = []
        with applier_calls(calls):
            _run(MEMORY_LOOP)
        called = len(calls)
        hth = _run(MEMORY_LOOP)
        assert len(calls) == called
        # Production: the loop's memory-touching block publishes its
        # steady state for the generated code to check inline.
        assert any(plan.taint_steady is not None and plan.trace_for
                   for plan in _plans(hth))


def _plans(hth):
    return [
        plan
        for cache in kernel_caches(hth.kernel)
        for plan in cache.plans.values()
    ]


def _traced(hth):
    return [plan for plan in _plans(hth) if plan.trace is not None]


class TestJitThresholds:
    def test_fuse_every_block_fuses_on_first_execution(self):
        with fuse_every_block():
            hth = _run()
        plans = _plans(hth)
        # The loop's single-run blocks (entry, exit) are fused too.
        assert plans and all(plan.fused is not None for plan in plans)

    def test_closure_only_never_fuses(self):
        with closure_only():
            hth = _run()
        assert all(plan.fused is None for plan in _plans(hth))
        assert max(plan.runs for plan in _plans(hth)) >= 5

    def test_record_path_fuses_without_inlining(self):
        with record_path():
            hth = _run(HOT_LOOP)
        fused = [plan for plan in _plans(hth) if plan.fused is not None]
        assert fused and all(plan.fused_for is None for plan in fused)

    def test_trace_every_loop_traces_at_the_first_fused_exit(self):
        with trace_every_loop():
            hth = _run(WARM_LOOP)
        assert _traced(hth)

    def test_no_traces_never_traces(self):
        with no_traces():
            hth = _run(HOT_LOOP)
        assert not _traced(hth)

    def test_restored_on_exit(self):
        with fuse_every_block():
            pass
        with closure_only():
            pass
        with record_path():
            pass
        with trace_every_loop():
            pass
        with no_traces():
            pass
        # Production: a loop head that has run too few times is not
        # tried as a trace head; a hot one is.
        assert not _traced(_run(WARM_LOOP))
        assert _traced(_run(HOT_LOOP))
        # Production: a block run fewer times than the threshold is
        # never fused, and a hot one inlines the monitor.
        assert all(plan.fused is None for plan in _plans(_run()))
        hth = _run(HOT_LOOP)
        fused = [plan for plan in _plans(hth) if plan.fused is not None]
        assert fused and all(
            plan.fused_for is hth.harrier.block_instrumentation
            is not None for plan in fused
        )


def _engine():
    engine = InferenceEngine()
    engine.define_template(Template.define("ev", "key"))
    engine.add_rule(Rule("r", [Pattern("ev", key=V("k"))], lambda ctx: None))
    return engine


class TestNaiveMatcher:
    def test_engines_built_inside_match_naively(self):
        with naive_matcher():
            engine = _engine()
        assert isinstance(engine._rete, NaiveNetwork)
        engine.assert_fact(engine.templates["ev"].make(key="a"))
        assert [a.key() for a in engine.agenda()] == [("r", (1,))]
        assert engine.run() == 1

    def test_engine_keeps_its_matcher_across_clear_facts(self):
        with naive_matcher():
            engine = _engine()
        engine.clear_facts()
        assert isinstance(engine._rete, NaiveNetwork)

    def test_restored_on_exit(self):
        with naive_matcher():
            pass
        assert isinstance(_engine()._rete, ReteNetwork)
