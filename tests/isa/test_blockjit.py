"""Block JIT: fused execution == closure execution, and nothing else.

The contract under test: a block's generated function
(:func:`repro.isa.blockjit.fuse`) leaves the machine and the block
record exactly as the per-instruction closures do — registers, flags,
``halted``, pc, memory, and every record field — for any straight-line
body under any terminator, faults included.  Plus what the JIT adds:
the threshold, the bounded shape-keyed code cache and its gauges, no
plan <-> applier reference cycles, exact DIV/MOD at any operand size,
monitor work inlined into fused blocks that leaves everything as
``Harrier.on_block`` does with the record, and generated source that
no guest value ever reaches.
"""

import gc
import io
import itertools
import re
import sys
import threading
import tokenize
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.harrier.config import HarrierConfig
from repro.harrier.dataflow import InstructionDataFlow
from repro.harrier.monitor import Harrier
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
    blockjit,
    translate,
)
from repro.isa.blockjit import CodeCache, block_source, compile_shape, fuse
from repro.isa.registers import GP_REGISTERS
from repro.isa.translate import (
    EXIT_BUDGET,
    EXIT_CONTINUE,
    EXIT_HALT,
    MAX_BLOCK_LEN,
    _trunc_div,
    translate_block,
)
from repro.kernel.kernel import EXIT_FAULT as PROCESS_EXIT_FAULT
from repro.taint.tags import DataSource, TagSet
from repro.telemetry.metrics import MetricsRegistry
from tests.oracles import closure_only, fuse_every_block, reference_interpreter
from tests.oracles.interpreter import step as interpret

_RECORD_FIELDS = (
    "executed", "kind", "holes", "next_pc", "call_target",
    "call_return_addr", "ret_target",
)


def _observe(cpu, rec):
    """Everything a block execution can change, in comparable form."""
    fault = rec.fault
    return {
        "regs": dict(cpu.regs._values),
        "zf": cpu.zf,
        "sf": cpu.sf,
        "halted": cpu.halted,
        "pc": cpu.pc,
        "cells": dict(cpu.memory.cells),
        "fault": None if fault is None else (type(fault), str(fault)),
        **{field: getattr(rec, field) for field in _RECORD_FIELDS},
    }


def _machine(code, values=(), zf=False, sf=False, cells=()):
    mem = FlatMemory()
    mem.map_code(0, code)
    mem.cells.update(cells)
    cpu = CPU(mem, entry=0)
    for reg, value in values:
        cpu.regs.set(reg, value)
    cpu.zf, cpu.sf = zf, sf
    return cpu


# -- random blocks -----------------------------------------------------------

#: Small register values so DIV by a zero register and store/load/stack
#: address collisions are common; esp/ebx/esi point into one small area.
_ADDR_REGS = ("ebx", "esi", "esp")
_REG = st.sampled_from(GP_REGISTERS)
_DST = _REG.map(Reg)
_IMM = st.integers(-2, 2).map(Imm)
_SRC = st.one_of(_DST, _IMM)
_MEM = st.builds(Mem, st.sampled_from(_ADDR_REGS), st.integers(-2, 2))
_ALU = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
        Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.SHL, Opcode.SHR)


def _op(opcode, *operands):
    return st.builds(Instruction, st.just(opcode), *operands)


_STRAIGHT = st.one_of(
    _op(Opcode.MOV, _DST, _SRC),
    st.sampled_from(_ALU).flatmap(lambda op: _op(op, _DST, _SRC)),
    # Faults mid-block whenever the divisor register holds zero.
    st.sampled_from((Opcode.DIV, Opcode.MOD)).flatmap(
        lambda op: _op(op, _DST, _DST)
    ),
    _op(Opcode.CMP, _DST, _SRC),
    _op(Opcode.LOAD, _DST, _MEM),
    _op(Opcode.STORE, _MEM, _SRC),
    _op(Opcode.PUSH, _SRC),
    _op(Opcode.POP, _DST),
    st.just(Instruction(Opcode.PUSH, Reg("esp"))),
    st.just(Instruction(Opcode.POP, Reg("esp"))),
    _op(Opcode.CPUID),
    _op(Opcode.NOP),
    # Always faults (bad operand), so the rest of the block is dead.
    _op(Opcode.MOV, _DST, _MEM),
)

_TARGET = st.integers(0, 40).map(Imm)
_TERMINATOR = st.one_of(
    _op(Opcode.JMP, _TARGET),
    st.sampled_from((
        Opcode.JZ, Opcode.JNZ, Opcode.JL, Opcode.JLE, Opcode.JG, Opcode.JGE,
    )).flatmap(lambda op: _op(op, _TARGET)),
    _op(Opcode.CALL, _DST),
    _op(Opcode.CALL, _TARGET),
    st.just(Instruction(Opcode.RET)),
    st.just(Instruction(Opcode.INT, Imm(0x80))),
    st.just(Instruction(Opcode.INT, Imm(0x81))),   # faults, halts
    st.just(Instruction(Opcode.HLT)),
    st.just(Instruction(Opcode.JMP, Reg("eax"))),   # faults
    st.none(),                                      # a cut block
)


@st.composite
def _entry_state(draw):
    values = [(reg, draw(st.integers(0x100, 0x104))) for reg in _ADDR_REGS]
    values += [
        (reg, draw(st.integers(-1, 1)))
        for reg in GP_REGISTERS if reg not in _ADDR_REGS
    ]
    cells = draw(st.dictionaries(
        st.integers(0xFC, 0x108), st.integers(-5, 5), max_size=6
    ))
    return values, draw(st.booleans()), draw(st.booleans()), cells


class TestFusedMatchesClosures:
    @given(
        st.lists(_STRAIGHT, min_size=0, max_size=10),
        _TERMINATOR,
        _entry_state(),
    )
    @settings(max_examples=500, deadline=None)
    def test_every_block_of_random_code(self, body, terminator, state):
        values, zf, sf, cells = state
        if terminator is None:
            # Cut before a leader right after the body.
            code = body + [Instruction(Opcode.NOP)]
            leaders = frozenset({len(body)})
            if not body:
                return
        else:
            code = body + [terminator]
            leaders = frozenset()
        lead = _machine(code, values, zf, sf, cells)
        # Walk the blocks the translator forms over the sequence (it
        # cuts before a load that follows a store); run each both ways
        # from the same state.
        while lead.pc in lead.memory.code and lead.pc not in leaders:
            plan = translate_block(lead.memory, lead.pc, leaders)
            twin = _machine(code)
            twin.regs._values.update(lead.regs._values)
            twin.memory.cells.update(lead.memory.cells)
            twin.zf, twin.sf, twin.pc = lead.zf, lead.sf, lead.pc
            with closure_only():
                closure_rec = plan.execute(lead, plan.length)
            fused_plan = translate_block(twin.memory, twin.pc, leaders)
            fused_rec = fuse(fused_plan)(fused_plan, twin, None)
            assert _observe(twin, fused_rec) == _observe(lead, closure_rec)
            assert fused_rec.plan is fused_plan
            if (closure_rec.kind != EXIT_CONTINUE
                    or plan.pcs[-1] >= len(body)):
                break


#: Monitor configurations whose inlined work must match ``on_block``.
_MONITOR_CONFIGS = {
    "full": HarrierConfig(),
    "no-dataflow": HarrierConfig(track_dataflow=False),
    "no-bbfreq": HarrierConfig(track_bb_frequency=False),
    "no-provenance": HarrierConfig(provenance=False),
    "no-short-circuit": HarrierConfig(short_circuit_routines=False),
}
_USER = TagSet.of(DataSource.USER_INPUT)
_FILE = TagSet.of(DataSource.FILE, "/f")


def _monitored(harrier, proc, inline, plan, cpu):
    """One full execution of ``plan``, the monitor inlined into its
    fused function or given the record; True when no record came back."""
    if inline:
        rec = fuse(plan, harrier.block_instrumentation)(
            plan, cpu, harrier.block_context(proc))
    else:
        rec = fuse(plan)(plan, cpu, None)
    if rec is not None:
        harrier.on_block(proc, rec)
    return rec is None


class TestInlinedMonitorMatchesOnBlock:
    """A fused block's inlined monitor work leaves the shadow, the BB
    counters and every monitor counter as ``on_block`` does with the
    record, and skips the record exactly on plain exits."""

    @given(
        st.lists(_STRAIGHT, min_size=0, max_size=10),
        _TERMINATOR,
        _entry_state(),
        st.sampled_from(sorted(_MONITOR_CONFIGS)),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_block_of_random_code(self, body, terminator, state,
                                        config, leader):
        values, zf, sf, cells = state
        if terminator is None:
            if not body:
                return
            code = body + [Instruction(Opcode.NOP)]
            leaders = frozenset({len(body)})
        else:
            code = body + [terminator]
            leaders = frozenset()
        seen = {}
        for inline in (False, True):
            cpu = _machine(code, values, zf, sf, cells)
            plan = translate_block(cpu.memory, 0, leaders)
            harrier = Harrier(config=_MONITOR_CONFIGS[config])
            proc = SimpleNamespace(meta={}, cpu=cpu, memory=cpu.memory)
            shadow = harrier.shadow(proc)
            for reg in ("eax", "ebx", "esp"):
                shadow.regs.set(reg, _USER)
            for addr in cells:
                shadow.memory.set(addr, _FILE)
            if leader:
                shadow.app_leaders[0] = True
            skipped = []
            for _ in range(2):  # the second run meets warm appliers
                cpu.pc = 0
                skipped.append(_monitored(harrier, proc, inline, plan, cpu))
            prov = harrier.provenance
            seen[inline] = skipped, (
                dict(cpu.regs._values), dict(cpu.memory.cells), cpu.pc,
                shadow.regs.snapshot(), dict(shadow.memory.cell_tags),
                dict(shadow.bb_counts), shadow.last_app_bb,
                harrier.fastpath_blocks, harrier.slowpath_blocks,
                None if prov is None else (
                    prov.blocks_observed, prov.block_tokens),
            )
        assert seen[True][1] == seen[False][1]
        assert seen[False][0] == [False, False]
        with closure_only():
            cpu = _machine(code, values, zf, sf, cells)
            rec = translate_block(cpu.memory, 0, leaders).execute(cpu, 99)
        records_calls = (
            config not in ("no-dataflow", "no-short-circuit")
        )
        plain = rec.kind == EXIT_CONTINUE and not (
            records_calls and (
                rec.call_target is not None or rec.ret_target is not None
            )
        )
        assert seen[True][0][0] == plain


_JCCS = (Opcode.JZ, Opcode.JNZ, Opcode.JL, Opcode.JLE, Opcode.JG,
         Opcode.JGE)

#: How the flags a branch tests were set: by the block's last CMP or ALU
#: op (whose register is overwritten afterwards, or not), or before the
#: block (the branch reads the stored flags).
_FLAG_SETTERS = {
    "cmp": [Instruction(Opcode.CMP, Reg("eax"), Imm(0))],
    "alu": [Instruction(Opcode.ADD, Reg("eax"), Imm(0))],
    "alu-then-overwritten": [
        Instruction(Opcode.ADD, Reg("eax"), Imm(0)),
        Instruction(Opcode.MOV, Reg("eax"), Imm(7)),
    ],
    "stored": [Instruction(Opcode.NOP)],
}


class TestBranches:
    @pytest.mark.parametrize("opcode", _JCCS, ids=lambda op: op.value)
    @pytest.mark.parametrize("setter", sorted(_FLAG_SETTERS))
    @pytest.mark.parametrize("value", (-1, 0, 1))
    def test_condition_matches_closures(self, opcode, setter, value):
        code = _FLAG_SETTERS[setter] + [Instruction(opcode, Imm(30))]
        state = dict(values=[("eax", value)], zf=value == 0, sf=value < 0)
        if setter != "stored":
            state.update(zf=value != 0, sf=value >= 0)  # stale flags
        closure = _machine(code, **state)
        with closure_only():
            plan = translate_block(closure.memory, 0)
            closure_rec = plan.execute(closure, plan.length)
        fused = _machine(code, **state)
        plan = translate_block(fused.memory, 0)
        fused_rec = fuse(plan)(plan, fused, None)
        assert _observe(fused, fused_rec) == _observe(closure, closure_rec)


class TestThreshold:
    CODE = [
        Instruction(Opcode.ADD, Reg("eax"), Imm(1)),
        Instruction(Opcode.ADD, Reg("eax"), Imm(2)),
        Instruction(Opcode.RET),
    ]

    def test_fused_at_the_threshold_full_execution(self):
        cpu = _machine(self.CODE, [("esp", 0x100)])
        plan = translate_block(cpu.memory, 0)
        for run in range(1, translate.JIT_THRESHOLD):
            cpu.pc = 0
            plan.execute(cpu, plan.length)
            assert plan.fused is None and plan.runs == run
        cpu.pc = 0
        rec = plan.execute(cpu, plan.length)
        assert plan.fused is not None
        assert rec.executed == 3
        assert cpu.regs.get("eax") == 3 * translate.JIT_THRESHOLD

    def test_partial_executions_run_closures_and_do_not_count(self):
        with fuse_every_block():
            cpu = _machine(self.CODE, [("esp", 0x100)])
            plan = translate_block(cpu.memory, 0)
            rec = plan.execute(cpu, 2)
        assert rec.kind == EXIT_BUDGET and rec.executed == 2
        assert plan.fused is None and plan.runs == 0

    def test_fused_plan_still_runs_partial_executions(self):
        with fuse_every_block():
            cpu = _machine(self.CODE, [("esp", 0x100)])
            plan = translate_block(cpu.memory, 0)
            plan.execute(cpu, plan.length)
        assert plan.fused is not None
        cpu.pc = 0
        rec = plan.execute(cpu, 1)
        assert rec.kind == EXIT_BUDGET and cpu.pc == 1

    def test_closure_only_never_fuses(self):
        runs = 3 * translate.JIT_THRESHOLD
        with closure_only():
            cpu = _machine(self.CODE, [("esp", 0x100)])
            plan = translate_block(cpu.memory, 0)
            for _ in range(runs):
                cpu.pc = 0
                plan.execute(cpu, plan.length)
        assert plan.fused is None


class TestCodeCache:
    def _shape(self, n):
        """A distinct shape per n: n NOPs then RET."""
        code = [Instruction(Opcode.NOP)] * n + [Instruction(Opcode.RET)]
        mem = FlatMemory()
        mem.map_code(0, code)
        return translate_block(mem, 0).shape

    def test_same_shape_compiles_once(self):
        cache = CodeCache(max_entries=8)
        code_a = [Instruction(Opcode.ADD, Reg("eax"), Imm(5)),
                  Instruction(Opcode.JMP, Imm(9))]
        code_b = [Instruction(Opcode.ADD, Reg("eax"), Imm(-70)),
                  Instruction(Opcode.JMP, Imm(1234))]
        plans = []
        for code in (code_a, code_b):
            mem = FlatMemory()
            mem.map_code(0, code)
            plans.append(translate_block(mem, 0))
        assert plans[0].shape == plans[1].shape
        assert plans[0].consts != plans[1].consts
        assert cache.code_for(plans[0].shape) is cache.code_for(
            plans[1].shape)
        assert cache.stats()["compiles"] == 1
        assert cache.stats()["fused_blocks"] == 2

    def test_bounded_least_recently_fused_first_out(self):
        cache = CodeCache(max_entries=3)
        shapes = [self._shape(n) for n in range(5)]
        for shape in shapes[:3]:
            cache.code_for(shape)
        cache.code_for(shapes[0])          # most recently used again
        cache.code_for(shapes[3])          # evicts shapes[1]
        cache.code_for(shapes[4])          # evicts shapes[2]
        stats = cache.stats()
        assert stats["code_objects"] == 3
        assert stats["evictions"] == 2 and stats["compiles"] == 5
        cache.code_for(shapes[0])          # still cached
        assert cache.stats()["compiles"] == 5
        cache.code_for(shapes[1])          # evicted: compiled again
        assert cache.stats()["compiles"] == 6

    def test_concurrent_fusing_keeps_the_counts(self):
        cache = CodeCache(max_entries=3)
        shapes = [self._shape(n) for n in range(6)]
        calls = 150
        workers = 4

        def fuse_many(offset):
            for i in range(calls):
                cache.code_for(shapes[(i + offset) % len(shapes)])

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fuse_many, args=(n,))
                for n in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats["fused_blocks"] == workers * calls
        assert stats["code_objects"] == 3
        assert stats["compiles"] - stats["evictions"] == 3

    def test_gauges_in_the_run_registry(self):
        hth = HTH(options=RunOptions(metrics=True))
        with fuse_every_block():
            hth.run(assemble("/bin/t", "main:\n    mov eax, 0\n    ret\n"))
        samples = {
            s["name"]: s["value"] for s in hth.telemetry.metrics.samples()
            if s["name"].startswith("blockjit_")
        }
        assert set(samples) == set(blockjit.GAUGES)
        stats = blockjit.CODE_CACHE.stats()
        assert samples["blockjit_code_objects"] == stats["code_objects"]
        assert samples["blockjit_compiles"] == stats["compiles"] >= 1

    def test_sample_gauges_from_foreign_stats(self):
        registry = MetricsRegistry()
        blockjit.sample_gauges(
            registry, {"code_objects": 7, "compiles": 9}, worker="1"
        )
        assert registry.value("blockjit_code_objects", worker="1") == 7
        assert registry.value("blockjit_compiles", worker="1") == 9
        assert registry.value("blockjit_evictions", worker="1") == 0


class TestNoReferenceCycles:
    def test_dropped_plan_needs_no_cycle_collector(self):
        code = [
            Instruction(Opcode.MOV, Reg("eax"), Imm(5)),
            Instruction(Opcode.STORE, Mem("esp", 0), Reg("eax")),
            Instruction(Opcode.ADD, Reg("eax"), Reg("ebx")),
            Instruction(Opcode.RET),
        ]
        cpu = _machine(code, [("esp", 0x100)])
        flow = InstructionDataFlow()
        shadow = ProcessShadow()
        gc.collect()
        gc.disable()
        try:
            plan = translate_block(cpu.memory, 0)
            rec = plan.execute(cpu, 2)                  # a prefix applier
            flow.install_applier(plan, rec.executed)(shadow, rec.holes)
            cpu.pc = 0
            rec = fuse(plan)(plan, cpu, None)           # the fused function
            flow.install_applier(plan, rec.executed)(shadow, rec.holes)
            assert plan.fused is not None and plan.taint_apply is not None
            del plan, rec
            assert gc.collect() == 0
        finally:
            gc.enable()


# -- exact division -----------------------------------------------------------

_HUGE = 3 ** 2100  # > 2**3300: a float quotient overflows


def _exact(lhs, rhs):
    return int(Fraction(lhs, rhs))  # int() truncates toward zero


@pytest.mark.parametrize("lhs_sign", (1, -1))
@pytest.mark.parametrize("rhs_sign", (1, -1))
@pytest.mark.parametrize("rhs", (3, 7, 2 ** 60 + 1, _HUGE // 5 + 2))
class TestExactDivision:
    def _operands(self, lhs_sign, rhs_sign, rhs):
        return lhs_sign * (_HUGE + 1), rhs_sign * rhs

    def test_trunc_div(self, lhs_sign, rhs_sign, rhs):
        lhs, rhs = self._operands(lhs_sign, rhs_sign, rhs)
        assert _trunc_div(lhs, rhs) == _exact(lhs, rhs)

    def test_closure_fused_and_interpreter_agree(self, lhs_sign, rhs_sign,
                                                 rhs):
        lhs, rhs = self._operands(lhs_sign, rhs_sign, rhs)
        code = [
            Instruction(Opcode.DIV, Reg("eax"), Reg("ebx")),
            Instruction(Opcode.MOD, Reg("ecx"), Reg("ebx")),
            Instruction(Opcode.DIV, Reg("edx"), Imm(rhs)),
            Instruction(Opcode.MOD, Reg("esi"), Imm(rhs)),
            Instruction(Opcode.HLT),
        ]
        values = [("eax", lhs), ("ecx", lhs), ("edx", lhs), ("esi", lhs),
                  ("ebx", rhs)]
        quotient = _exact(lhs, rhs)
        want = {"eax": quotient, "ecx": lhs - quotient * rhs,
                "edx": quotient, "esi": lhs - quotient * rhs}
        closure = _machine(code, values)
        with closure_only():
            plan = translate_block(closure.memory, 0)
            assert plan.execute(closure, plan.length).kind == EXIT_HALT
        fused = _machine(code, values)
        plan = translate_block(fused.memory, 0)
        assert fuse(plan)(plan, fused, None).kind == EXIT_HALT
        oracle = _machine(code, values)
        for _ in range(4):
            interpret(oracle)
        for cpu in (closure, fused, oracle):
            for reg, value in want.items():
                assert cpu.regs.get(reg) == value, reg


#: Squares eax (3) eleven times — past 2**1024 — divides exactly, checks
#: the product round-trips, then divides by a zero register (a fault).
HUGE_DIVIDE = """
main:
    mov eax, 3
    mov ecx, 11
square:
    mul eax, eax
    sub ecx, 1
    cmp ecx, 0
    jnz square
    mov ebx, eax
    div ebx, 3
    mul ebx, 3
    sub ebx, eax
    cmp ebx, 0
    jnz inexact
    mov edx, 0
    div eax, edx
inexact:
    mov eax, 1
    ret
"""


class TestHugeDivideGuest:
    @pytest.mark.parametrize(
        "mode", (closure_only, fuse_every_block, reference_interpreter),
        ids=("closures", "fused", "interpreter"),
    )
    def test_report_with_a_fault_not_an_exception(self, mode):
        with mode():
            report = HTH().run(assemble("/bin/huge", HUGE_DIVIDE))
        assert report.exit_code == PROCESS_EXIT_FAULT
        assert [msg for _, msg in report.faults] == [
            "division by zero at 0x100d"
        ]


# -- generated source ---------------------------------------------------------

#: Labels, strings and immediates chosen to look like Python.
HOSTILE = """
main:
    mov eax, __import__
    mov ebx, 0x41414141
    mov ecx, -0x41414141
    add eax, 0x41414141
    store [esp-0x41414141], 0x41414141
    load edx, [esp+0x5f5f5f5f]
    cmp ebx, 0x41414141
    jz __import__
    call lambda_
    xor eax, eax
    int 0x80
__import__:
    push 0x22272729
    pop esi
    jmp exec_
lambda_:
    mov edi, quote
    ret
exec_:
    mov eax, 1
    mov ebx, 0
    int 0x80
.data
quote: .asciz "'); __import__('os').system('id') #"
evil: .asciz "\\"\\"\\"; exec('1') ; \\"\\"\\""
"""

#: Every name generated code may look up: attributes of the cpu, its
#: register file and memory, the record, ``cells.get``, and what the
#: inlined monitor work reads of the plan and its context.
CO_NAMES_ALLOWED = frozenset({
    "regs", "_values", "memory", "cells", "get", "zf", "sf", "pc",
    "halted", "holes", "next_pc", "executed", "kind", "fault",
    "call_target", "call_return_addr", "ret_target",
    "monitor", "fastpath_blocks", "taint_apply", "install", "shadow",
    "seen", "observe", "app_leaders", "bb_counts", "last_app_bb",
})


#: Every identifier generated source may contain.
SOURCE_NAMES_ALLOWED = CO_NAMES_ALLOWED | set(GP_REGISTERS) | {
    "def", "block", "plan", "cpu", "m", "BlockRecord", "CpuFault", "s",
    "rec", "cget", "f", "q", "t", "ap", "sh", "c", "if", "else", "and",
    "or", "not", "is", "in", "return", "True", "None",
}

#: Every instrumentation a block can be fused for: None (a record at
#: every exit) and each combination of the monitor parts, each with a
#: taint summary that moves tags and one that does not.
VARIANTS = [(None, False)] + [
    (blockjit.instrumentation(*parts), noop)
    for n in range(len(blockjit.PARTS) + 1)
    for parts in itertools.combinations(blockjit.PARTS, n)
    for noop in (False, True)
]


def _tokens(source):
    return [
        (tok.type, tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
    ]


class TestGuestValuesNeverReachSource:
    def test_hostile_guest(self):
        hth = HTH()
        with fuse_every_block():
            report = hth.run(assemble("/bin/hostile", HOSTILE))
        assert report.exit_code == 0
        plans = [
            plan
            for _, cache in hth.kernel._block_caches.values()
            for plan in cache.plans.values()
        ]
        fused = [plan for plan in plans if plan.fused is not None]
        assert len(fused) >= 5
        # The run fused its blocks for the full monitor's inlined work.
        assert {plan.fused_for for plan in fused} == {
            hth.harrier.block_instrumentation}
        # Only register names and shape-derived small literals: the
        # shift mask, record kinds, executed counts (<= the longest
        # block), the bbfreq increment and an empty address trace.
        small = set(range(MAX_BLOCK_LEN + 1))
        co_consts_allowed = set(GP_REGISTERS) | small | {None, True, ()}
        numbers_allowed = {str(n) for n in small}
        strings_allowed = {repr(reg) for reg in GP_REGISTERS}
        needles = ("__import__", "0x41414141", str(0x41414141), "'os'",
                   "exec(", "lambda_", "system", "0x5f5f5f5f",
                   str(0x5F5F5F5F), str(0x22272729))

        def check(code, source):
            assert set(code.co_names) <= CO_NAMES_ALLOWED, source
            assert set(code.co_consts) <= co_consts_allowed, source
            assert not any(needle in source for needle in needles), source
            for kind, text in _tokens(source):
                if kind == tokenize.NUMBER:
                    assert text in numbers_allowed, source
                elif kind == tokenize.STRING:
                    assert text in strings_allowed, source
                elif kind == tokenize.NAME:
                    assert (
                        text in SOURCE_NAMES_ALLOWED
                        or re.fullmatch(r"[kh]\d+", text)
                    ), source

        for plan in fused:
            check(plan.fused.__code__, block_source(
                plan.shape, plan.fused_for, plan.taint_summary.is_noop))
            for instrumentation, noop in VARIANTS:
                check(
                    compile_shape(plan.shape, instrumentation, noop),
                    block_source(plan.shape, instrumentation, noop),
                )

    def test_emitter_rejects_unknown_names(self):
        for instrumentation, noop in VARIANTS:
            for shape in (
                (("mov", "__import__", "eax"), ("ret",)),
                (("os.system", "eax"), ("ret",)),
                (("nop",), ("exec('1')",)),
                (("nop",), ("jmp",), ("exec('1')",)),
            ):
                with pytest.raises(ValueError):
                    block_source(shape, instrumentation, noop)

    def test_unknown_instrumentation_is_rejected(self):
        with pytest.raises(ValueError):
            blockjit.instrumentation("taint", "__import__")
        with pytest.raises(ValueError):
            block_source((("nop",), ("jmp",)), ("exec('1')",))
