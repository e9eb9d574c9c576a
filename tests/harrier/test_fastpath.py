"""Block taint appliers: liveness summaries and their runtime evaluation.

The contract under test: for any execution of a block — full, or a
prefix cut short by the budget or a fault — the compiled summary
applier (``InstructionDataFlow.install_applier``) leaves the shadow
state bit-identical to the replay oracle's transfer-by-transfer
template replay (``tests.oracles.replay.apply_block``).  Plus the
monitor-level wiring: the counters say how many full-block and prefix
applications ran, and the run ``repro profile`` counts from (metrics
plus a trace) takes the same path as a metrics-only run.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tests.oracles.replay import apply_block
from tests.oracles.readers import cell_tags

FILE_A = TagSet.of(DataSource.FILE, "/a")
SOCK = TagSet.of(DataSource.SOCKET, "h:1")


def make_plan(instructions):
    mem = FlatMemory()
    mem.map_code(0, instructions)
    return translate_block(mem, 0), mem


def run_blocks(instructions, setup=None):
    """Execute straight-line code block by block (the translator may cut
    it); returns the executed (plan, record) pairs in order."""
    mem = FlatMemory()
    mem.map_code(0, instructions)
    cpu = CPU(mem, entry=0)
    cpu.regs.set("esp", 0x1000)
    if setup is not None:
        setup(cpu)
    out = []
    while True:
        plan = translate_block(mem, cpu.pc)
        rec = plan.execute(cpu, plan.length)
        assert rec.executed == plan.length
        out.append((plan, rec))
        if plan.pcs[-1] == len(instructions) - 1:
            return out


def both_paths(instructions, taint_setup=None, cpu_setup=None):
    """Apply every block record via replay and via the compiled applier
    on twin shadows."""
    flow = InstructionDataFlow()
    slow = ProcessShadow()
    fast = ProcessShadow()
    if taint_setup is not None:
        taint_setup(slow)
        taint_setup(fast)
    for plan, rec in run_blocks(instructions, setup=cpu_setup):
        apply_block(flow, slow, rec)
        flow.install_applier(plan, rec.executed)(fast, rec.holes)
    return slow, fast


def assert_identical(slow, fast):
    assert slow.regs.snapshot() == fast.regs.snapshot()
    assert cell_tags(slow.memory) == cell_tags(fast.memory)


class TestSummaryShape:
    def test_compare_branch_block_is_noop(self):
        plan, _ = make_plan([
            Instruction(Opcode.CMP, Reg("eax"), Imm(0)),
            Instruction(Opcode.JZ, Imm(0)),
        ])
        summary = plan.taint_summary
        assert summary.is_noop
        assert summary.live_in == ()
        assert summary.read_holes == ()

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

    def test_load_and_store_record_their_holes(self):
        plan, _ = make_plan([
            Instruction(Opcode.LOAD, Reg("ebx"), Mem("esi", 0)),   # hole 0
            Instruction(Opcode.STORE, Mem("edi", 0), Reg("ebx")),  # hole 1
            Instruction(Opcode.RET),
        ])
        summary = plan.taint_summary
        assert summary.read_holes == (0,)
        assert summary.touch_holes == (0, 1)
        assert dict(summary.mem_writes) == {1: (("mem", 0),)}


class TestEvaluationEquivalence:
    def test_clean_state_pure_block(self):
        slow, fast = both_paths([
            Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
            Instruction(Opcode.ADD, Reg("ebx"), Reg("ecx")),
            Instruction(Opcode.RET),
        ])
        assert_identical(slow, fast)

    def test_tainted_registers_propagate(self):
        def taint(shadow):
            shadow.regs.set("eax", FILE_A)
            shadow.regs.set("ecx", SOCK)

        slow, fast = both_paths(
            [
                Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
                Instruction(Opcode.ADD, Reg("ebx"), Reg("ecx")),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
        )
        assert_identical(slow, fast)
        assert fast.regs.get("ebx") == FILE_A.union(SOCK)

    def test_stale_tags_cleared_by_clean_overwrite(self):
        # ebx carried taint at entry but the block overwrites it from a
        # clean source: the fast path must clear, not skip.
        def taint(shadow):
            shadow.regs.set("ebx", FILE_A)

        slow, fast = both_paths(
            [
                Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
        )
        assert_identical(slow, fast)
        assert fast.regs.snapshot() == {}

    def test_tainted_load_propagates(self):
        def cpu_setup(cpu):
            cpu.regs.set("esi", 0x500)

        def taint(shadow):
            shadow.memory.set(0x500, SOCK)

        slow, fast = both_paths(
            [
                Instruction(Opcode.LOAD, Reg("ebx"), Mem("esi", 0)),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert_identical(slow, fast)
        assert fast.regs.get("ebx") == SOCK

    def test_store_of_tainted_register(self):
        def cpu_setup(cpu):
            cpu.regs.set("edi", 0x600)

        def taint(shadow):
            shadow.regs.set("eax", FILE_A)

        slow, fast = both_paths(
            [
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("eax")),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert_identical(slow, fast)
        assert fast.memory.get(0x600) == FILE_A

    def test_aliasing_load_sees_the_stored_tags(self):
        # store [edi] then load [esi] with edi == esi: the load must see
        # the *stored* tags.  The translator ends the block before the
        # load, so each summary reads memory at its own entry.
        def cpu_setup(cpu):
            cpu.regs.set("edi", 0x700)
            cpu.regs.set("esi", 0x700)

        def taint(shadow):
            shadow.regs.set("eax", FILE_A)
            shadow.memory.set(0x700, SOCK)

        slow, fast = both_paths(
            [
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("eax")),
                Instruction(Opcode.LOAD, Reg("ebx"), Mem("esi", 0)),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert_identical(slow, fast)
        assert fast.regs.get("ebx") == FILE_A

    def test_non_aliasing_store_then_load(self):
        def cpu_setup(cpu):
            cpu.regs.set("edi", 0x700)
            cpu.regs.set("esi", 0x800)

        def taint(shadow):
            shadow.regs.set("eax", FILE_A)
            shadow.memory.set(0x800, SOCK)

        slow, fast = both_paths(
            [
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("eax")),
                Instruction(Opcode.LOAD, Reg("ebx"), Mem("esi", 0)),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert_identical(slow, fast)
        assert fast.regs.get("ebx") == SOCK
        assert fast.memory.get(0x700) == FILE_A

    def test_double_store_same_address_last_wins(self):
        def cpu_setup(cpu):
            cpu.regs.set("edi", 0x900)

        def taint(shadow):
            shadow.regs.set("eax", FILE_A)
            shadow.regs.set("ebx", SOCK)

        slow, fast = both_paths(
            [
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("eax")),
                Instruction(Opcode.STORE, Mem("edi", 0), Reg("ebx")),
                Instruction(Opcode.RET),
            ],
            taint_setup=taint,
            cpu_setup=cpu_setup,
        )
        assert_identical(slow, fast)
        assert fast.memory.get(0x900) == SOCK


class TestSharedApplier:
    """One plan's applier serves every process running the block: its
    front caches must never carry one register file's state over to
    another."""

    def test_register_files_at_equal_generations(self):
        plan, _ = make_plan([
            Instruction(Opcode.LOAD, Reg("eax"), Mem("ebx", 0)),
            Instruction(Opcode.RET),
        ])
        applier = InstructionDataFlow().install_applier(plan, plan.length)
        first, second = ProcessShadow(), ProcessShadow()
        for shadow in (first, second):
            shadow.memory.set(0x900, FILE_A)
        applier(first, (0x900,))
        assert first.regs.get("eax") == FILE_A
        # Same entry key (the loaded cell), same generation, but a
        # register file the applier never wrote.
        second.regs.set("esi", SOCK)
        assert second.regs.gen == first.regs.gen
        applier(second, (0x900,))
        assert second.regs.get("eax") == FILE_A
        applier(first, (0x900,))
        assert first.regs.snapshot() == {"eax": FILE_A}


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
        total = harrier.fastpath_blocks + harrier.slowpath_blocks
        assert total > 0

    def test_replay_oracle_runs_every_application(self):
        calls = []
        with template_replay(calls):
            harrier = self._run()
        production = self._run()
        assert len(calls) == (
            harrier.fastpath_blocks + harrier.slowpath_blocks
        )
        assert (harrier.fastpath_blocks, harrier.slowpath_blocks) == (
            production.fastpath_blocks, production.slowpath_blocks
        )

    def test_partial_record_is_a_prefix_application(self):
        plan, mem = make_plan([
            Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
            Instruction(Opcode.MOV, Reg("ecx"), Imm(7)),
            Instruction(Opcode.RET),
        ])
        cpu = CPU(mem, entry=0)
        cpu.regs.set("esp", 0x1000)
        rec = plan.execute(cpu, 1)  # budget expires mid-block
        assert rec.executed < plan.length
        harrier = self._run()
        before_slow = harrier.slowpath_blocks
        before_fast = harrier.fastpath_blocks
        proc = SimpleNamespace(meta={})
        shadow = harrier.shadow(proc)
        shadow.regs.set("eax", FILE_A)
        shadow.regs.set("ecx", SOCK)
        harrier.on_block(proc, rec)
        assert harrier.slowpath_blocks == before_slow + 1
        assert harrier.fastpath_blocks == before_fast
        assert set(plan.prefix_apply) == {1}
        # Only the executed prefix moved taint: ecx keeps its tags.
        assert shadow.regs.snapshot() == {
            "eax": FILE_A, "ebx": FILE_A, "ecx": SOCK,
        }


#: Registers the random blocks use; edi/esi/ebx start on a handful of
#: nearby addresses so loads, stores and the stack collide often.
_REGS = ("eax", "ebx", "ecx", "edx", "esi", "edi")
_ADDR_REGS = ("ebx", "esi", "edi", "esp")
_TAGS = (
    FILE_A,
    SOCK,
    FILE_A.union(SOCK),
    TagSet.of(DataSource.USER_INPUT),
)

_reg = st.sampled_from(_REGS)
_dst = _reg.map(Reg)
_src = st.one_of(_dst, st.integers(-3, 3).map(Imm))
_mem = st.builds(Mem, st.sampled_from(_ADDR_REGS), st.integers(-1, 1))


def _op(opcode, *operands):
    return st.builds(Instruction, st.just(opcode), *operands)


_instruction = st.one_of(
    _op(Opcode.MOV, _dst, _src),
    _op(Opcode.ADD, _dst, _src),
    _op(Opcode.SUB, _dst, _src),
    _op(Opcode.OR, _dst, _src),
    _reg.map(lambda r: Instruction(Opcode.XOR, Reg(r), Reg(r))),
    # May divide by zero: a fault stops the block mid-way.
    _op(Opcode.DIV, _dst, _dst),
    _op(Opcode.LOAD, _dst, _mem),
    _op(Opcode.STORE, _mem, _src),
    _op(Opcode.PUSH, _src),
    _op(Opcode.POP, _dst),
    _op(Opcode.CPUID),
    _op(Opcode.CMP, _dst, _dst),
    _op(Opcode.NOP),
)


@st.composite
def _machine_state(draw):
    """Entry register values plus random register and memory taint."""
    values = {
        reg: draw(st.integers(0x100, 0x103)) for reg in _ADDR_REGS
    }
    values.update({
        reg: draw(st.integers(-2, 2))
        for reg in _REGS if reg not in values
    })
    reg_tags = draw(st.dictionaries(_reg, st.sampled_from(_TAGS)))
    mem_tags = draw(st.dictionaries(
        st.integers(0xFC, 0x107), st.sampled_from(_TAGS)
    ))
    return values, reg_tags, mem_tags


class TestPrefixEquivalence:
    """Every prefix of every block: compiled applier == template replay."""

    @given(
        st.lists(_instruction, min_size=1, max_size=12),
        _machine_state(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_prefix_matches_replay(self, instructions, state,
                                         in_image):
        values, reg_tags, mem_tags = state
        code = instructions + [Instruction(Opcode.RET)]
        image = SimpleNamespace(name="/bin/h") if in_image else None

        def shadow():
            sh = ProcessShadow()
            for reg, tags in reg_tags.items():
                sh.regs.set(reg, tags)
            for addr, tags in mem_tags.items():
                sh.memory.set(addr, tags)
            if image is not None:
                for pc in range(len(code)):
                    sh.code_image[pc] = image
            return sh

        def cpu(like=None):
            """A fresh machine at entry, or a copy of ``like``'s state."""
            mem = FlatMemory()
            mem.map_code(0, code)
            c = CPU(mem, entry=0)
            if like is None:
                for reg, value in values.items():
                    c.regs.set(reg, value)
            else:
                c.regs._values.update(like.regs._values)
                mem.cells.update(like.memory.cells)
                c.pc = like.pc
            return c

        # Walk the blocks the translator forms over the sequence; at
        # each block start, rerun the block for every prefix length.
        lead = cpu()
        while True:
            plan = translate_block(lead.memory, lead.pc)
            for n in range(1, plan.length + 1):
                rec = plan.execute(cpu(like=lead), n)
                if rec.executed == 0:
                    continue
                flow = InstructionDataFlow()
                slow, fast = shadow(), shadow()
                apply_block(flow, slow, rec)
                applier = flow.install_applier(plan, rec.executed)
                applier(fast, rec.holes)
                assert_identical(slow, fast)
                # Re-entry (front cache, memo, generation skip) agrees.
                apply_block(flow, slow, rec)
                applier(fast, rec.holes)
                assert_identical(slow, fast)
            if plan.pcs[-1] == len(instructions):
                break  # the final RET block
            if plan.execute(lead, plan.length).executed < plan.length:
                break  # the block faults; nothing runs after it


def _monitor_gauges(workload, options):
    hth = workload.build_machine(options=options)
    hth.run(
        workload.image(),
        argv=workload.argv or [workload.program_path],
        env=workload.env,
        stdin=workload.stdin,
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
        # `repro profile` counts from a run with metrics and a trace;
        # its blocks take the same fast/slow path and feed the evidence
        # recorder the same as a metrics-only run's.
        workload = ref.resolve()
        plain = _monitor_gauges(workload, RunOptions(metrics=True))
        profiled = _monitor_gauges(
            workload, RunOptions(metrics=True, trace=True)
        )
        assert plain["harrier_fastpath_blocks"] > 0
        assert plain == profiled
