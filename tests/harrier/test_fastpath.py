"""Zero-taint fast path: liveness summaries and their runtime evaluation.

The contract under test: for any *fully executed* block, the compiled
summary applier (``InstructionDataFlow.install_applier``) either refuses
(returns False, load/store alias detected) or leaves the shadow state
bit-identical to ``apply_block``'s per-transfer replay.  Plus the
monitor-level wiring: partial executions and the forced-replay oracle
must route to the slow path, the counters must say which path ran, and
a profiled run must take the same path as an unprofiled one.
"""

from types import SimpleNamespace

import pytest

from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.fleet import workload_refs
from repro.harrier.dataflow import InstructionDataFlow
from repro.harrier.state import ProcessShadow
from repro.isa import (
    CPU,
    FlatMemory,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Reg,
    assemble,
)
from repro.isa.translate import TOK_HW, TOK_IMM, translate_block
from repro.taint import DataSource, TagSet
from tests.oracles import template_replay

FILE_A = TagSet.of(DataSource.FILE, "/a")
SOCK = TagSet.of(DataSource.SOCKET, "h:1")


def make_plan(instructions):
    mem = FlatMemory()
    mem.map_code(0, instructions)
    return translate_block(mem, 0), mem


def run_block(instructions, setup=None):
    """Execute a block once; returns its (plan, record)."""
    plan, mem = make_plan(instructions)
    cpu = CPU(mem, entry=0)
    cpu.regs.set("esp", 0x1000)
    if setup is not None:
        setup(cpu)
    rec = plan.execute(cpu, plan.length)
    assert rec.executed == plan.length
    return plan, rec


def both_paths(instructions, taint_setup=None, cpu_setup=None):
    """Apply one record via slow and fast path on twin shadows."""
    plan, rec = run_block(instructions, setup=cpu_setup)
    flow = InstructionDataFlow()
    slow = ProcessShadow()
    fast = ProcessShadow()
    if taint_setup is not None:
        taint_setup(slow)
        taint_setup(fast)
    flow.apply_block(slow, rec)
    took_fast = flow.install_applier(plan)(fast, rec)
    return slow, fast, took_fast


def assert_identical(slow, fast):
    assert slow.regs.snapshot() == fast.regs.snapshot()
    assert dict(slow.memory.cell_tags) == dict(fast.memory.cell_tags)


class TestSummaryShape:
    def test_compare_branch_block_is_noop(self):
        plan, _ = make_plan([
            Instruction(Opcode.CMP, Reg("eax"), Imm(0)),
            Instruction(Opcode.JZ, Imm(0)),
        ])
        summary = plan.taint_summary
        assert summary.is_noop
        assert summary.live_in == ()
        assert not summary.has_loads

    def test_register_chain_folds_to_entry_tokens(self):
        # ebx = eax; ebx += ecx  ==> ebx's support is {eax, ecx} at entry
        plan, _ = make_plan([
            Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
            Instruction(Opcode.ADD, Reg("ebx"), Reg("ecx")),
            Instruction(Opcode.RET),
        ])
        summary = plan.taint_summary
        writes = dict(summary.reg_writes)
        assert set(writes["ebx"]) == {("reg", "eax"), ("reg", "ecx")}
        assert set(summary.live_in) == {"eax", "ecx"}
        assert summary.zero_taint_safe

    def test_immediate_defeats_zero_taint_safety(self):
        plan, _ = make_plan([
            Instruction(Opcode.MOV, Reg("eax"), Imm(5)),
            Instruction(Opcode.RET),
        ])
        summary = plan.taint_summary
        assert dict(summary.reg_writes)["eax"] == (TOK_IMM,)
        assert not summary.zero_taint_safe

    def test_cpuid_defeats_zero_taint_safety(self):
        plan, _ = make_plan([
            Instruction(Opcode.CPUID),
            Instruction(Opcode.RET),
        ])
        summary = plan.taint_summary
        assert TOK_HW in dict(summary.reg_writes)["eax"]
        assert not summary.zero_taint_safe

    def test_xor_self_overwrite_kills_liveness(self):
        # eax's entry tags never survive xor eax,eax; the later read of
        # eax must resolve to the (empty) chained value, not live-in.
        plan, _ = make_plan([
            Instruction(Opcode.XOR, Reg("eax"), Reg("eax")),
            Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
            Instruction(Opcode.RET),
        ])
        summary = plan.taint_summary
        writes = dict(summary.reg_writes)
        assert writes["eax"] == ()
        assert writes["ebx"] == ()
        assert summary.live_in == ()
        assert summary.zero_taint_safe

    def test_load_records_hole_and_store_records_alias_check(self):
        plan, _ = make_plan([
            Instruction(Opcode.STORE, Mem("edi", 0), Reg("eax")),  # hole 0
            Instruction(Opcode.LOAD, Reg("ebx"), Mem("esi", 0)),   # hole 1
            Instruction(Opcode.RET),
        ])
        summary = plan.taint_summary
        assert summary.read_holes == (1,)
        assert summary.alias_checks == ((1, (0,)),)
        assert summary.touch_holes == (0, 1)
        assert dict(summary.mem_writes) == {0: (("reg", "eax"),)}

    def test_load_before_store_needs_no_alias_check(self):
        plan, _ = make_plan([
            Instruction(Opcode.LOAD, Reg("ebx"), Mem("esi", 0)),
            Instruction(Opcode.STORE, Mem("edi", 0), Reg("ebx")),
            Instruction(Opcode.RET),
        ])
        assert plan.taint_summary.alias_checks == ()


class TestEvaluationEquivalence:
    def test_clean_state_pure_block(self):
        slow, fast, ok = both_paths([
            Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
            Instruction(Opcode.ADD, Reg("ebx"), Reg("ecx")),
            Instruction(Opcode.RET),
        ])
        assert ok
        assert_identical(slow, fast)

    def test_tainted_registers_propagate(self):
        def taint(shadow):
            shadow.regs.set("eax", FILE_A)
            shadow.regs.set("ecx", SOCK)

        slow, fast, ok = both_paths(
            [
                Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
                Instruction(Opcode.ADD, Reg("ebx"), Reg("ecx")),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
        )
        assert ok
        assert_identical(slow, fast)
        assert fast.regs.get("ebx") == FILE_A.union(SOCK)

    def test_stale_tags_cleared_by_clean_overwrite(self):
        # ebx carried taint at entry but the block overwrites it from a
        # clean source: the fast path must clear, not skip.
        def taint(shadow):
            shadow.regs.set("ebx", FILE_A)

        slow, fast, ok = both_paths(
            [
                Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
        )
        assert ok
        assert_identical(slow, fast)
        assert fast.regs.snapshot() == {}

    def test_tainted_load_propagates(self):
        def cpu_setup(cpu):
            cpu.regs.set("esi", 0x500)

        def taint(shadow):
            shadow.memory.set(0x500, SOCK)

        slow, fast, ok = both_paths(
            [
                Instruction(Opcode.LOAD, Reg("ebx"), Mem("esi", 0)),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert ok
        assert_identical(slow, fast)
        assert fast.regs.get("ebx") == SOCK

    def test_store_of_tainted_register(self):
        def cpu_setup(cpu):
            cpu.regs.set("edi", 0x600)

        def taint(shadow):
            shadow.regs.set("eax", FILE_A)

        slow, fast, ok = both_paths(
            [
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("eax")),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert ok
        assert_identical(slow, fast)
        assert fast.memory.get(0x600) == FILE_A

    def test_aliasing_load_bails_to_slow_path(self):
        # store [edi] then load [esi] with edi == esi: the load must see
        # the *stored* tags, which entry-state evaluation cannot express.
        def cpu_setup(cpu):
            cpu.regs.set("edi", 0x700)
            cpu.regs.set("esi", 0x700)

        def taint(shadow):
            shadow.regs.set("eax", FILE_A)

        slow, fast, ok = both_paths(
            [
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("eax")),
                Instruction(Opcode.LOAD, Reg("ebx"), Mem("esi", 0)),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert not ok  # caller must fall back to apply_block
        # And the fallback produces the right answer:
        assert slow.regs.get("ebx") == FILE_A

    def test_non_aliasing_store_load_stays_fast(self):
        def cpu_setup(cpu):
            cpu.regs.set("edi", 0x700)
            cpu.regs.set("esi", 0x800)

        def taint(shadow):
            shadow.regs.set("eax", FILE_A)
            shadow.memory.set(0x800, SOCK)

        slow, fast, ok = both_paths(
            [
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("eax")),
                Instruction(Opcode.LOAD, Reg("ebx"), Mem("esi", 0)),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert ok
        assert_identical(slow, fast)
        assert fast.regs.get("ebx") == SOCK
        assert fast.memory.get(0x700) == FILE_A

    def test_double_store_same_address_last_wins(self):
        def cpu_setup(cpu):
            cpu.regs.set("edi", 0x900)

        def taint(shadow):
            shadow.regs.set("eax", FILE_A)
            shadow.regs.set("ebx", SOCK)

        slow, fast, ok = both_paths(
            [
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("eax")),
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("ebx")),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert ok
        assert_identical(slow, fast)
        assert fast.memory.get(0x900) == SOCK


class TestMonitorWiring:
    SOURCE = """
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

    def _run(self, **kwargs):
        hth = HTH(**kwargs)
        hth.run(assemble("/bin/t", self.SOURCE))
        return hth.harrier

    def test_fastpath_counters(self):
        harrier = self._run()
        assert harrier.fastpath_blocks > 0
        # Guest startup writes immediates etc., so both paths run.
        total = harrier.fastpath_blocks + harrier.slowpath_blocks
        assert total > 0

    def test_replay_oracle_disables_fastpath(self):
        with template_replay():
            harrier = self._run()
        assert harrier.fastpath_blocks == 0
        assert harrier.slowpath_blocks > 0

    def test_partial_execution_routes_to_slow_path(self):
        plan, mem = make_plan([
            Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
            Instruction(Opcode.MOV, Reg("ecx"), Reg("eax")),
            Instruction(Opcode.RET),
        ])
        cpu = CPU(mem, entry=0)
        cpu.regs.set("esp", 0x1000)
        rec = plan.execute(cpu, 1)  # budget expires mid-block
        assert rec.executed < plan.length
        harrier = self._run()
        before_slow = harrier.slowpath_blocks
        before_fast = harrier.fastpath_blocks
        harrier.on_block(SimpleNamespace(meta={}), rec)
        assert harrier.slowpath_blocks == before_slow + 1
        assert harrier.fastpath_blocks == before_fast


def _monitor_gauges(workload, options):
    hth = workload.build_machine(options=options)
    hth.run(
        workload.image(),
        argv=workload.argv or [workload.program_path],
        env=workload.env,
        stdin=workload.stdin,
        max_ticks=workload.max_ticks,
    )
    return {
        sample["name"]: sample["value"]
        for sample in hth.telemetry.metrics.samples()
        if sample["kind"] == "gauge"
        and sample["name"].startswith(("harrier_", "provenance_"))
    }


class TestProfiledPath:
    @pytest.mark.parametrize(
        "ref", workload_refs(["6"]), ids=lambda ref: ref.name
    )
    def test_profiling_leaves_monitor_gauges_unchanged(self, ref):
        # The stage profiler only times on_block; the blocks take the
        # same fast/slow path and feed the evidence recorder the same.
        workload = ref.resolve()
        plain = _monitor_gauges(workload, RunOptions(metrics=True))
        profiled = _monitor_gauges(workload, RunOptions(profile=True))
        assert plain["harrier_fastpath_blocks"] > 0
        assert plain == profiled
