"""Block JIT: fused execution == per-op execution, and nothing else.

The contract under test: a block's generated function
(:func:`repro.isa.blockjit.fuse`) leaves the machine and the block
record exactly as the block's per-op functions do — registers, flags,
``halted``, pc, memory, and every record field — for any straight-line
body under any terminator, faults included.  Both come from one
emitter, so the independent check of each op's semantics is the Python
model and the reference interpreter (``tests/isa/test_properties.py``
and the exact-division cases here).  Plus what the JIT adds: the op
table (every op shape the decoder can produce, within its ISA bound),
the threshold, the bounded shape-keyed code cache and its gauges, no
plan <-> applier reference cycles, exact DIV/MOD at any operand size,
monitor work inlined into fused blocks that leaves everything as
``Harrier.on_block`` does with the record, the taint applier's steady
state inlined so that it calls no applier yet leaves the shadow as the
call does, loop traces that leave everything as the reference
interpreter does (side exits, budgets, flags, counts) and form only
where they may, and generated source that no guest value ever reaches.
"""

import contextlib
import gc
import io
import itertools
import re
import sys
import threading
import tokenize
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

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
from repro.harrier.blockcache import BlockCache
from repro.isa.blockjit import (
    CodeCache,
    block_source,
    compile_shape,
    fuse,
    op_source,
    taint_layout,
    trace_source,
)
from repro.isa.instructions import ALU_OPCODES
from repro.isa.registers import GP_REGISTERS
from repro.isa.translate import (
    EXIT_BUDGET,
    EXIT_CONTINUE,
    EXIT_HALT,
    MAX_BLOCK_LEN,
    translate_block,
)
from repro.kernel.hooks import CompositeHooks
from repro.kernel.kernel import EXIT_FAULT as PROCESS_EXIT_FAULT
from repro.kernel.kernel import SLICE_QUANTA, Kernel
from repro.taint.tags import DataSource, TagSet
from repro.telemetry.metrics import MetricsRegistry
from tests.oracles import (
    applier_calls,
    closure_only,
    fuse_every_block,
    no_traces,
    one_quantum_per_pass,
    record_path,
    reference_interpreter,
    trace_every_loop,
)
from tests.oracles.cachestats import block_cache_stats, kernel_caches
from tests.oracles.interpreter import step as interpret
from tests.oracles.readers import cell_tags

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


#: Monitor settings (``Harrier`` arguments) whose inlined work must
#: match ``on_block``.
_MONITOR_CONFIGS = {
    "full": {},
    "no-dataflow": {"config": HarrierConfig(track_dataflow=False)},
    "no-bbfreq": {"config": HarrierConfig(track_bb_frequency=False)},
    "no-provenance": {"provenance": False},
    "no-short-circuit": {
        "config": HarrierConfig(short_circuit_routines=False)},
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
            harrier = Harrier(**_MONITOR_CONFIGS[config])
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
                shadow.regs.snapshot(), cell_tags(shadow.memory),
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


#: A memory-touching block: two loads (holes 0 and 1) mixed into
#: ``eax`` (the one live-in register), stored through ``esi`` (hole 2).
_STEADY_CODE = [
    Instruction(Opcode.LOAD, Reg("edx"), Mem("ebx", 0)),
    Instruction(Opcode.LOAD, Reg("ecx"), Mem("ebx", 1)),
    Instruction(Opcode.ADD, Reg("eax"), Reg("edx")),
    Instruction(Opcode.ADD, Reg("eax"), Reg("ecx")),
    Instruction(Opcode.STORE, Mem("esi", 0), Reg("eax")),
    Instruction(Opcode.JMP, Imm(0)),
]
_SOURCE = TagSet.of(DataSource.SOCKET, "peer")


class _SteadyMachine:
    """``_STEADY_CODE`` fused for the full monitor, run for processes
    that share the cpu but each have their own shadow."""

    def __init__(self) -> None:
        self.cpu = _machine(_STEADY_CODE, [("ebx", 0x100), ("esi", 0x140)])
        self.plan = translate_block(self.cpu.memory, 0, frozenset())
        self.harrier = Harrier()
        self.fn = fuse(self.plan, self.harrier.block_instrumentation)
        self.procs = []
        shadow = self.process()
        shadow.regs.set("eax", _USER)
        shadow.memory.set(0x100, _FILE)

    def process(self, shadow=None):
        proc = SimpleNamespace(meta={}, cpu=self.cpu, memory=self.cpu.memory)
        if shadow is not None:
            proc.meta["harrier.shadow"] = shadow
        self.procs.append(proc)
        return self.harrier.shadow(proc)

    def shadow(self, n=0):
        return self.harrier.shadow(self.procs[n])

    def run(self, n=0, times=1):
        for _ in range(times):
            self.cpu.pc = 0
            assert self.fn(self.plan, self.cpu,
                           self.harrier.block_context(self.procs[n])) is None

    def fingerprint(self):
        return [
            (self.shadow(n).regs.snapshot(),
             cell_tags(self.shadow(n).memory))
            for n in range(len(self.procs))
        ], self.harrier.fastpath_blocks


def _steady(script):
    """Run ``script(machine, calls)`` on a fresh machine inlining the
    steady state and on one that calls the applier every time; assert
    both leave the same shadows and counters, and return the first
    run's applier calls (``calls`` collects them once ``script`` calls
    it, after warming up)."""
    seen = []
    for oracle in (contextlib.nullcontext, applier_calls):
        with oracle():
            machine = _SteadyMachine()
            calls = []

            def count():
                applier = machine.plan.taint_apply

                def counted(shadow, holes):
                    calls.append(tuple(holes))
                    applier(shadow, holes)

                machine.plan.taint_apply = counted

            script(machine, count)
            seen.append((machine.fingerprint(), calls))
    (inlined, calls), (called, reference_calls) = seen
    assert inlined == called
    assert reference_calls  # the reference really called the applier
    return calls


class TestInlinedApplierSteadyState:
    """Generated code checks the applier's published steady state
    inline and calls the applier only when it does not hold; either
    way the shadow ends as the call alone leaves it."""

    def test_layout_follows_the_summary(self):
        plan = _SteadyMachine().plan
        assert taint_layout(plan.taint_summary) == (1, (0, 1), (2,))
        noop = translate_block(
            _machine([Instruction(Opcode.JMP, Imm(0))]).memory, 0,
            frozenset())
        assert taint_layout(noop.taint_summary) is None

    def test_steady_state_calls_no_applier(self):
        def script(machine, count):
            machine.run(times=3)
            count()
            machine.run(times=5)

        assert _steady(script) == []

    def test_a_register_change_calls_the_applier(self):
        def script(machine, count):
            machine.run(times=3)
            count()
            machine.shadow().regs.set("eax", _SOURCE)
            machine.run()

        assert _steady(script) == [(0x100, 0x101, 0x140)]

    def test_another_register_file_at_the_same_generation(self):
        def script(machine, count):
            machine.run(times=3)
            count()
            first = machine.shadow()
            other = machine.process()
            other.memory = first.memory.copy()
            other.regs.set("eax", _SOURCE)
            other.regs.gen = first.regs.gen
            machine.run(1)

        assert len(_steady(script)) == 1

    @pytest.mark.parametrize("addr", [0x100, 0x101])
    def test_a_changed_read_cell_calls_the_applier(self, addr):
        def script(machine, count):
            machine.run(times=3)
            count()
            machine.shadow().memory.set(addr, _SOURCE)
            machine.run(times=4)

        # The first call adds the new source to ``eax``; the second
        # meets that register file and publishes it; then none.
        assert len(_steady(script)) == 2

    def test_stores_to_new_cells_without_a_call(self):
        def script(machine, count):
            machine.run(times=3)
            count()
            for esi in (0x141, 0x180, 0x142):
                machine.cpu.regs.set("esi", esi)
                machine.run()
            # Clean entry state: the stores clear tagged cells.
            machine.shadow().memory.set(0x100, TagSet.empty())
            machine.shadow().regs.clear()
            machine.run()
            for esi in (0x141, 0x143):
                machine.cpu.regs.set("esi", esi)
                machine.run()

        assert _steady(script) == [(0x100, 0x101, 0x142)]

    def test_unchanged_store_leaves_a_forked_page_shared(self):
        def script(machine, count):
            machine.run(times=3)
            count()
            parent = machine.shadow()
            child = machine.process(parent.copy_for_fork())
            # A call for the child's own register file, then its
            # steady state inline: neither stores the unchanged tags.
            machine.run(1, times=3)
            assert child.memory._pages[0x140 >> 6] is (
                parent.memory._pages[0x140 >> 6])

        assert _steady(script) == [(0x100, 0x101, 0x140)]

    def test_same_shape_other_layout_gets_its_own_code(self):
        # An always-faulting DIV by 0 drops its register from the shape
        # but not from the summary: ecx, chained from the load, is live
        # in in one block and not in the other.
        inst = blockjit.instrumentation(blockjit.TAINT)
        plans = [
            translate_block(_machine([
                Instruction(Opcode.LOAD, Reg("ecx"), Mem("edx", 0)),
                Instruction(Opcode.DIV, Reg(reg), Imm(0)),
                Instruction(Opcode.JMP, Imm(0)),
            ]).memory, 0, frozenset())
            for reg in ("eax", "ecx")
        ]
        first, second = plans
        assert first.shape == second.shape
        layouts = [taint_layout(plan.taint_summary) for plan in plans]
        assert layouts[0] != layouts[1]
        codes = [fuse(plan, inst).__code__ for plan in plans * 2]
        assert codes[0] is not codes[1]
        assert codes[0] is codes[2] and codes[1] is codes[3]
        for plan, layout in zip(plans, layouts):
            assert plan.fused.__code__ is blockjit.CODE_CACHE.code_for(
                plan.shape, inst, plan.taint_summary.is_noop, layout)

    def test_a_layout_that_does_not_fit_the_block(self):
        plan = _SteadyMachine().plan
        with pytest.raises(ValueError):
            block_source(plan.shape, blockjit.instrumentation(
                blockjit.TAINT), False, (1, (0, 3), (2,)))


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

    @staticmethod
    def _code(cache, shape):
        """The record-path code (no instrumentation) for ``shape``."""
        return cache.code_for(shape, None, False, None)

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
        assert self._code(cache, plans[0].shape) is self._code(
            cache, plans[1].shape)
        assert cache.stats()["compiles"] == 1
        assert cache.stats()["fused_blocks"] == 2

    def test_bounded_least_recently_fused_first_out(self):
        cache = CodeCache(max_entries=3)
        shapes = [self._shape(n) for n in range(5)]
        for shape in shapes[:3]:
            self._code(cache, shape)
        self._code(cache, shapes[0])            # most recently used again
        self._code(cache, shapes[3])            # evicts shapes[1]
        self._code(cache, shapes[4])            # evicts shapes[2]
        stats = cache.stats()
        assert stats["code_objects"] == 3
        assert stats["evictions"] == 2 and stats["compiles"] == 5
        self._code(cache, shapes[0])            # still cached
        assert cache.stats()["compiles"] == 5
        self._code(cache, shapes[1])            # evicted: compiled again
        assert cache.stats()["compiles"] == 6

    def test_concurrent_fusing_keeps_the_counts(self):
        cache = CodeCache(max_entries=3)
        shapes = [self._shape(n) for n in range(6)]
        calls = 150
        workers = 4

        def fuse_many(offset):
            for i in range(calls):
                self._code(cache, shapes[(i + offset) % len(shapes)])

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
        with fuse_every_block(), trace_every_loop():
            hth.run(assemble("/bin/t", TOP_TESTED))
        samples = {
            s["name"]: s["value"] for s in hth.telemetry.metrics.samples()
            if s["name"].startswith("blockjit_")
        }
        assert set(samples) == set(blockjit.GAUGES)
        stats = blockjit.CODE_CACHE.stats()
        assert set(stats) == set(blockjit.GAUGES.values())
        for gauge, key in blockjit.GAUGES.items():
            assert samples[gauge] == stats[key], gauge
        assert samples["blockjit_compiles"] >= 1
        assert samples["blockjit_traces"] >= 1
        assert samples["blockjit_op_codes"] >= 1

    def test_sample_gauges_from_foreign_stats(self):
        registry = MetricsRegistry()
        blockjit.sample_gauges(
            registry, {"code_objects": 7, "compiles": 9, "traces": 3},
            worker="1",
        )
        assert registry.value("blockjit_code_objects", worker="1") == 7
        assert registry.value("blockjit_compiles", worker="1") == 9
        assert registry.value("blockjit_traces", worker="1") == 3
        assert registry.value("blockjit_evictions", worker="1") == 0


# -- the op table -------------------------------------------------------------

#: Source operands the decoder reads: every register, immediates (zero,
#: the syscall vector, another) and a memory operand (a bad source).
_SOURCES = [Reg(r) for r in GP_REGISTERS] + [
    Imm(0), Imm(0x80), Imm(7), Mem("eax", 1)]
_DESTS = [Reg(r) for r in GP_REGISTERS]
_BASES = [Mem(r, 1) for r in GP_REGISTERS]


def _every_instruction():
    """Every operand shape of every opcode, as the decoder reads it."""
    for opcode in Opcode:
        if opcode is Opcode.LOAD:
            pairs = itertools.product(_DESTS, _BASES)
        elif opcode is Opcode.STORE:
            pairs = itertools.product(_BASES, _SOURCES)
        elif opcode in ALU_OPCODES or opcode in (Opcode.MOV, Opcode.CMP):
            pairs = itertools.product(_DESTS, _SOURCES)
        elif opcode is Opcode.POP:
            pairs = ((dst, None) for dst in _DESTS)
        elif opcode in (Opcode.RET, Opcode.CPUID, Opcode.NOP, Opcode.HLT):
            pairs = [(None, None)]
        else:  # push, call, the jumps and int: one source
            pairs = ((src, None) for src in _SOURCES)
        for a, b in pairs:
            yield Instruction(opcode, a, b)


def _ops(plan):
    """``(op shape, per-op function, fixed arguments)`` of each of a
    plan's ops."""
    body = len(plan.body_ops)
    return [(item, op, 4) for item, op in zip(plan.shape, plan.body_ops)] \
        + [(plan.shape[body:], plan.term_op, 5)]


class TestOpTable:
    def test_every_op_shape_compiles_within_the_isa_bound(self):
        """Each instruction alone (a terminator or a cut block) and
        before a RET (a body op): every opcode decodes, every op's
        function takes exactly its slice of the plan's constants, and
        the distinct op shapes are the op table's bound."""
        keys = set()
        decoded = set()
        for instr in _every_instruction():
            for code in ([instr], [instr, Instruction(Opcode.RET)]):
                mem = FlatMemory()
                mem.map_code(0, code)
                plan = translate_block(mem, 0)
                decoded.add(instr.opcode)
                consts = ()
                for key, op, fixed in _ops(plan):
                    bound = op.__defaults__ or ()
                    assert op.__code__.co_argcount == fixed + len(bound)
                    assert op.__code__ is blockjit.CODE_CACHE.op_code(key)
                    consts += bound
                    keys.add(key)
                assert consts == plan.consts
        assert decoded == set(Opcode)
        cache = CodeCache()
        for key in keys:
            cache.op_code(key)
        stats = cache.stats()
        assert len(keys) == blockjit.OP_SHAPES
        assert stats["op_codes"] == stats["op_compiles"] == len(keys)

    def test_same_op_shape_shares_its_code(self):
        def plan(value, target):
            mem = FlatMemory()
            mem.map_code(0, [Instruction(Opcode.ADD, Reg("eax"), Imm(value)),
                             Instruction(Opcode.JMP, Imm(target))])
            return translate_block(mem, 0)

        first = plan(5, 9)
        compiles = blockjit.CODE_CACHE.stats()["op_compiles"]
        second = plan(-70, 1234)
        assert blockjit.CODE_CACHE.stats()["op_compiles"] == compiles
        assert first.body_ops[0].__code__ is second.body_ops[0].__code__
        assert first.term_op.__code__ is second.term_op.__code__
        assert first.body_ops[0].__defaults__ == (5,)
        assert second.term_op.__defaults__ == (1234,)

    def test_op_emitter_rejects_unknown_names(self):
        for key in (("mov", "__import__", "eax"), ("os.system", "eax"),
                    (("nop",), ("exec('1')",)), (("exec('1')",),)):
            with pytest.raises(ValueError):
                op_source(key)


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


# -- loop traces ----------------------------------------------------------------

#: Tested at the top: the head's ``jge`` falls through into the body, so
#: the loop's exit is the taken side exit.  The body reads and writes
#: memory (two taint holes) and ends in a jump back.
TOP_TESTED = """
main:
    mov ecx, 0
    mov ebx, buf
loop:
    cmp ecx, 60
    jge done
    mov eax, ebx
    add eax, ecx
    load edx, [eax]
    add edx, ecx
    store [eax], edx
    add ecx, 1
    jmp loop
done:
    mov eax, 0
    ret
.data
buf: .space 64
"""

#: Tested at the bottom: a one-block cycle continuing at its ``jl``
#: target, so the loop's exit is the fall-through side exit.
BOTTOM_TESTED = """
main:
    mov ecx, 0
    mov ebx, buf
    mov eax, 7
loop:
    load edx, [ebx]
    add edx, eax
    add ebx, 1
    add ecx, 1
    cmp ecx, 60
    jl loop
    mov eax, 0
    ret
.data
buf: .space 64
"""

#: The loop leaves through the head's side exit with ZF set by its CMP;
#: the block after the loop branches on the flags the trace wrote back.
FLAGS_AFTER = """
main:
    mov ecx, 0
loop:
    cmp ecx, 50
    jge done
    add ecx, 1
    jmp loop
done:
    jz equal
    mov eax, 1
    ret
equal:
    mov eax, 2
    ret
"""

#: Counts down with SUB setting the flags the bottom ``jnz`` reads; the
#: ``jz`` after the loop reads them again.
ALU_FLAGS_AFTER = """
main:
    mov ecx, 50
    mov eax, 3
loop:
    add eax, ecx
    sub ecx, 1
    jnz loop
    jz zero
    mov eax, 1
    ret
zero:
    mov eax, 0
    ret
"""

#: DIV by a register in the body: its divisor reaches zero at the 55th
#: iteration, a fault mid-loop.
DIV_BY_REGISTER = """
main:
    mov ecx, 0
    mov ebx, 55
loop:
    cmp ecx, 60
    jge done
    mov eax, 1000
    div eax, ebx
    sub ebx, 1
    add ecx, 1
    jmp loop
done:
    mov eax, 0
    ret
"""

#: The same loop dividing by an immediate: no fault exit, so it traces.
DIV_BY_IMMEDIATE = DIV_BY_REGISTER.replace("div eax, ebx", "div eax, 7")


def _traces(hth):
    return [
        plan
        for cache in kernel_caches(hth.kernel)
        for plan in cache.plans.values()
        if plan.trace is not None
    ]


@contextlib.contextmanager
def _trace_calls():
    """Record ``(limit, (instructions, entries))`` for every call of a
    loop trace formed inside the block."""
    calls = []
    form = blockjit.form_trace

    def spy(*args):
        trace = form(*args)
        if trace is not None:
            run = trace.run

            def counted(plan, cpu, m, limit):
                result = run(plan, cpu, m, limit)
                calls.append((limit, result))
                return result

            trace.run = counted
        return trace

    with mock.patch.object(blockjit, "form_trace", spy):
        yield calls


def _loop_run(source, oracle, quantum=200, max_ticks=None, config=None):
    """Run ``source`` under ``oracle`` with a full monitor: the machine
    and everything observable about the run and the monitor's state."""
    with oracle():
        hth = HTH(options=RunOptions(harrier_config=config))
        hth.kernel.quantum = quantum
        report = hth.run(assemble("/bin/loop", source), max_ticks=max_ticks)
    proc = hth.kernel.procs[1]
    shadow = hth.harrier.shadow(proc)
    prov = hth.harrier.provenance
    stats = block_cache_stats(hth.kernel)
    return hth, {
        "reason": report.result.reason,
        "ticks": report.result.ticks,
        "instructions": report.result.instructions,
        "exit_code": report.exit_code,
        "faults": report.faults,
        "events": [str(e) for e in report.events],
        "regs": dict(proc.cpu.regs._values),
        "flags": (proc.cpu.zf, proc.cpu.sf),
        "pc": proc.cpu.pc,
        "cells": dict(proc.memory.cells),
        "bb_counts": dict(shadow.bb_counts),
        "last_app_bb": shadow.last_app_bb,
        "reg_tags": shadow.regs.snapshot(),
        "cell_tags": cell_tags(shadow.memory),
    }, {
        "fastpath": hth.harrier.fastpath_blocks,
        "slowpath": hth.harrier.slowpath_blocks,
        "provenance": (prov.blocks_observed, prov.block_tokens),
        "lookups": stats["hits"] + stats["misses"],
    }


def _assert_traced_matches(source, **run):
    """Traced == the reference interpreter, and == untraced fused
    execution with the monitor's counters and the block entries too;
    returns the traced machine."""
    hth, traced, counters = _loop_run(source, trace_every_loop, **run)
    _, interp, _ = _loop_run(source, reference_interpreter, **run)
    assert traced == interp
    _, untraced, untraced_counters = _loop_run(source, no_traces, **run)
    assert (traced, counters) == (untraced, untraced_counters)
    return hth


#: Four straight ops and a jump back: one iteration of the unit loop
#: below is its 2-instruction head plus this 3-instruction body.
_UNIT_LOOP = [
    Instruction(Opcode.CMP, Reg("ecx"), Imm(5)),    # 0: head
    Instruction(Opcode.JGE, Imm(5)),
    Instruction(Opcode.ADD, Reg("eax"), Reg("ecx")),  # 2: body
    Instruction(Opcode.ADD, Reg("ecx"), Imm(1)),
    Instruction(Opcode.JMP, Imm(0)),
    Instruction(Opcode.HLT),                          # 5: after the loop
]
_UNIT_LEADERS = frozenset({0, 2, 5})


def _unit_trace(cpu, instrumentation=blockjit.instrumentation()):
    plans = {
        pc: translate_block(cpu.memory, pc, _UNIT_LEADERS) for pc in (0, 2)
    }
    head = plans[0]
    return head, blockjit.form_trace(head, plans, 0, len(_UNIT_LOOP),
                                     instrumentation)


class TestLoopTraces:
    def test_runs_whole_iterations_then_side_exits(self):
        cpu = _machine(_UNIT_LOOP)
        twin = _machine(_UNIT_LOOP)
        head, trace = _unit_trace(cpu)
        assert trace.cost == 5 and trace.branches == (False, None)
        # 12 fits two iterations: the third would overshoot.
        assert trace.run(head, cpu, None, 12) == (10, 4)
        for _ in range(10):
            interpret(twin)
        assert (cpu.pc, cpu.regs._values) == (0, twin.regs._values)
        # ecx 2..4 run in full, then the head leaves at ecx == 5 with
        # the CMP's flags written back.
        assert trace.run(head, cpu, None, 100) == (17, 7)
        for _ in range(17):
            interpret(twin)
        assert (cpu.pc, cpu.zf, cpu.sf) == (twin.pc, True, False) == (
            5, twin.zf, twin.sf)
        assert cpu.regs._values == twin.regs._values

    def test_settles_entry_counts_at_exit(self):
        """Full-block applications and bbfreq counts per block entry,
        and the last app block to run, as block-by-block execution
        leaves them."""
        inst = blockjit.instrumentation(blockjit.TAINT, blockjit.BBFREQ)
        cpu = _machine(_UNIT_LOOP)
        head, trace = _unit_trace(cpu, inst)
        monitor = SimpleNamespace(fastpath_blocks=0)
        shadow = ProcessShadow()
        shadow.app_leaders.update({0: True, 2: True})
        context = blockjit.MonitorContext(
            monitor, shadow, InstructionDataFlow().install_applier, None,
            None)
        # Budget exit after two whole iterations: the body ran last.
        assert trace.run(head, cpu, context, 12) == (10, 4)
        assert (shadow.bb_counts, shadow.last_app_bb) == ({0: 2, 2: 2}, 2)
        # Side exit at the head in the fourth iteration: the head ran
        # once more than the body, and last.
        assert trace.run(head, cpu, context, 100) == (17, 7)
        assert (shadow.bb_counts, shadow.last_app_bb) == ({0: 6, 2: 5}, 0)
        assert monitor.fastpath_blocks == 11
        # Only app leaders are counted.
        del shadow.app_leaders[0]
        cpu.regs.set("ecx", 0)
        cpu.pc = 0
        assert trace.run(head, cpu, context, 100) == (27, 11)
        assert (shadow.bb_counts, shadow.last_app_bb) == ({0: 6, 2: 10}, 2)

    @pytest.mark.parametrize("source,branches", (
        (TOP_TESTED, (False, None)),
        (BOTTOM_TESTED, (True,)),
    ), ids=("taken-exit", "fall-through-exit"))
    def test_side_exit_in_each_branch_direction(self, source, branches):
        with _trace_calls() as calls:
            hth = _assert_traced_matches(source)
        (plan,) = _traces(hth)
        assert plan.trace.branches == branches
        # The last call left through the side exit, mid-budget.
        limit, (executed, _) = calls[-1]
        assert executed < (limit // plan.trace.cost) * plan.trace.cost

    @pytest.mark.parametrize("quantum", (2, 8, 3 * 9 + 4, 200))
    def test_budget_is_never_overshot(self, quantum):
        """One quantum per pass (as beside a live sibling process), a
        quantum below one iteration never enters the trace, and the
        blocks it cuts short take the prefix path; any other quantum
        runs whole iterations and leaves the rest of the budget to the
        block path, with the interpreter's ticks."""
        with one_quantum_per_pass(), _trace_calls() as calls:
            hth = _assert_traced_matches(TOP_TESTED, quantum=quantum)
        (plan,) = _traces(hth)
        cost = plan.trace.cost
        assert cost == 9
        if quantum < cost:
            assert calls == []
            assert hth.harrier.slowpath_blocks > 0
            return
        assert calls
        for limit, (executed, entries) in calls:
            assert executed <= limit and entries >= 1
        if quantum % cost:
            assert any(limit % cost for limit, _ in calls)

    @pytest.mark.parametrize("quantum", (2, 8))
    def test_a_lone_slice_is_never_overshot(self, quantum):
        """A lone process's slice of SLICE_QUANTA quanta holds whole
        iterations even where one quantum would not, and its budget
        is never overshot either."""
        with _trace_calls() as calls:
            _assert_traced_matches(TOP_TESTED, quantum=quantum)
        assert calls
        for limit, (executed, entries) in calls:
            assert executed <= limit <= SLICE_QUANTA * quantum
            assert entries >= 1

    @pytest.mark.parametrize("max_ticks", (60, 200, 311))
    def test_deadline_mid_loop(self, max_ticks):
        with _trace_calls() as calls:
            _assert_traced_matches(TOP_TESTED, max_ticks=max_ticks)
        assert all(executed <= limit for limit, (executed, _) in calls)

    @pytest.mark.parametrize("source,code", (
        (FLAGS_AFTER, 2), (ALU_FLAGS_AFTER, 0),
    ), ids=("cmp", "alu"))
    def test_flags_written_back_for_a_branch_after_the_loop(self, source,
                                                            code):
        with _trace_calls() as calls:
            hth = _assert_traced_matches(source)
        assert _traces(hth) and calls
        assert hth.kernel.procs[1].exit_code == code

    def test_div_by_a_register_forms_no_trace(self):
        hth = _assert_traced_matches(DIV_BY_REGISTER)
        assert not _traces(hth)
        assert [msg for _, msg in hth.kernel.faults()] == [
            "division by zero at 0x1005"
        ]
        hth = _assert_traced_matches(DIV_BY_IMMEDIATE)
        assert _traces(hth)

    def test_warm_plans_run_each_instrumentation_its_own_trace(self):
        """Plans a warm engine shares across monitor configurations:
        each configuration runs a trace built for its instrumentation,
        or none, and matches a cold run of its own."""
        from repro.core.engine import EngineCache

        engine = EngineCache()
        configs = (
            (HarrierConfig(), contextlib.nullcontext),
            (HarrierConfig(), record_path),
            (HarrierConfig(track_bb_frequency=False),
             contextlib.nullcontext),
            (HarrierConfig(track_dataflow=False), contextlib.nullcontext),
            (HarrierConfig(), contextlib.nullcontext),
        )

        def run(config, oracle, engine):
            with oracle():
                hth = HTH(options=RunOptions(harrier_config=config),
                          engine=engine)
                image = (engine.image("/bin/loop", TOP_TESTED)
                         if engine is not None
                         else assemble("/bin/loop", TOP_TESTED))
                assert hth.run(image).exit_code == 0
            proc = hth.kernel.procs[1]
            shadow = hth.harrier.shadow(proc)
            return hth, (
                dict(proc.memory.cells), dict(shadow.bb_counts),
                shadow.last_app_bb, cell_tags(shadow.memory),
                hth.harrier.fastpath_blocks, hth.harrier.slowpath_blocks,
            )

        for config, oracle in configs:
            hth, warm = run(config, oracle, engine)
            assert warm == run(config, oracle, None)[1]
            (plan,) = _traces(hth)
        assert plan.trace_for is hth.harrier.block_instrumentation

    def test_no_trace_on_the_record_path(self):
        with record_path(), trace_every_loop():
            hth = HTH()
            assert hth.run(assemble("/bin/loop", TOP_TESTED)).exit_code == 0
        assert not _traces(hth)

    def test_no_trace_for_composite_hooks(self):
        with trace_every_loop():
            hth = HTH()
            hth.kernel.hooks = CompositeHooks([hth.harrier])
            assert hth.run(assemble("/bin/loop", TOP_TESTED)).exit_code == 0
        assert not _traces(hth)

    def test_no_trace_across_an_image_boundary(self):
        """A shared library block whose cycle runs through app code, and
        that app block, head no trace; the same cycle in one image
        does."""
        code = [
            Instruction(Opcode.ADD, Reg("ebx"), Imm(1)),   # 0: app
            Instruction(Opcode.JMP, Imm(4)),
            Instruction(Opcode.HLT),
            Instruction(Opcode.HLT),
            Instruction(Opcode.ADD, Reg("eax"), Imm(1)),   # 4: library
            Instruction(Opcode.CMP, Reg("eax"), Imm(50)),
            Instruction(Opcode.JL, Imm(0)),
            Instruction(Opcode.HLT),
        ]
        memory = FlatMemory()
        memory.map_code(0, code)
        inst = blockjit.instrumentation()
        images = (SimpleNamespace(text_start=0, text_end=4),
                  SimpleNamespace(text_start=4, text_end=8))
        with trace_every_loop():
            for libraries, image_map, traced in (
                ([(4, 8, {})], images, False),
                ([], images, False),
                ([], images[:1] + (
                    SimpleNamespace(text_start=0, text_end=8),), True),
            ):
                cache = BlockCache(leaders=frozenset({0, 4}),
                                   libraries=libraries)
                app = cache.lookup(memory, 0)
                lib = cache.lookup(memory, 4)
                proc = SimpleNamespace(block_cache=cache,
                                       image_map=image_map)
                Kernel._note_hot(proc, lib, inst)
                Kernel._note_hot(proc, app, inst)
                assert lib.trace_for is inst
                assert (lib.trace is not None) is traced
                assert app.trace is None
                assert app.trace_for is (blockjit.JOINED if traced else inst)

    def test_dropped_head_and_member_need_no_cycle_collector(self):
        inst = blockjit.instrumentation(blockjit.TAINT, blockjit.BBFREQ)
        flow = InstructionDataFlow()
        gc.collect()
        gc.disable()
        try:
            cpu = _machine(_UNIT_LOOP)
            head, trace = _unit_trace(cpu, inst)
            fuse(head, inst)
            context = blockjit.MonitorContext(
                SimpleNamespace(fastpath_blocks=0), ProcessShadow(),
                flow.install_applier, None, None)
            assert trace.run(head, cpu, context, 100) == (27, 11)
            (member,) = trace.members
            assert member.taint_apply is not None
            assert member.trace_for is blockjit.JOINED
            del head, member, trace, context
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_provenance_notes_the_members_that_ran_at_the_exit(self):
        """A trace notes a taint-carrying member once, at its exit, and
        only when the member ran: the body of a loop left at the head's
        first branch is not noted."""
        inst = blockjit.instrumentation(blockjit.TAINT, blockjit.PROVENANCE)
        flow = InstructionDataFlow()
        for start, ran in ((5, False), (3, True)):
            cpu = _machine(_UNIT_LOOP, values=[("ecx", start)])
            head, trace = _unit_trace(cpu, inst)
            (body,) = trace.members
            noted = []
            context = blockjit.MonitorContext(
                SimpleNamespace(fastpath_blocks=0), ProcessShadow(),
                flow.install_applier, set(noted), noted.append)
            trace.run(head, cpu, context, 100)
            assert noted == ([body] if ran else [])

    def test_generated_source_rejects_untraceable_cycles(self):
        inst = blockjit.instrumentation()
        for shapes in (
            ((("div", "eax", "ebx"), ("cmp", "eax", "#"), ("jz",)),),
            ((("fault",),),),
            ((("nop",), ("ret",)),),
            # The branch would read a flag from the previous iteration.
            ((("nop",), ("jz",)), (("cmp", "eax", "#"), ("jmp",))),
        ):
            assert not blockjit.traceable(shapes)
            with pytest.raises(ValueError):
                trace_source(shapes, (None,) * len(shapes), inst,
                             (False,) * len(shapes), (None,) * len(shapes))


# -- exact division -----------------------------------------------------------

_HUGE = 3 ** 2100  # > 2**3300: a float quotient overflows


def _exact(lhs, rhs):
    return int(Fraction(lhs, rhs))  # int() truncates toward zero


@pytest.mark.parametrize("lhs_sign", (1, -1))
@pytest.mark.parametrize("rhs_sign", (1, -1))
@pytest.mark.parametrize(
    "rhs", (1, 3, 7, 2 ** 60 + 1, _HUGE // 5 + 2, _HUGE + 1, _HUGE + 2))
class TestExactDivision:
    def _operands(self, lhs_sign, rhs_sign, rhs):
        return lhs_sign * (_HUGE + 1), rhs_sign * rhs

    def test_trunc_div(self, lhs_sign, rhs_sign, rhs):
        """Each DIV/MOD op's own function, run alone: the quotient
        truncates toward zero and the remainder takes the dividend's
        sign, exactly, by a register and by an immediate."""
        lhs, rhs = self._operands(lhs_sign, rhs_sign, rhs)
        quotient = _exact(lhs, rhs)
        for opcode, want in ((Opcode.DIV, quotient),
                             (Opcode.MOD, lhs - quotient * rhs)):
            for divisor in (Reg("ebx"), Imm(rhs)):
                code = [Instruction(opcode, Reg("eax"), divisor),
                        Instruction(Opcode.HLT)]
                cpu = _machine(code, [("eax", lhs), ("ebx", rhs)])
                plan = translate_block(cpu.memory, 0)
                plan.body_ops[0](cpu, cpu.regs._values, cpu.memory.cells,
                                 [])
                assert cpu.regs.get("eax") == want, (opcode, divisor)
                assert cpu.regs.get("ebx") == rhs

    def test_closure_fused_and_interpreter_agree(self, lhs_sign, rhs_sign,
                                                 rhs):
        """Exact and inexact quotients of each sign, against
        ``Fraction``: the per-op functions, a fused block and the
        reference interpreter."""
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
#: inlined monitor work reads of the plan and its context (with the
#: applier's steady state: the published state and the shadow's raw
#: register file, page table and ``set``).
CO_NAMES_ALLOWED = frozenset({
    "regs", "_values", "memory", "cells", "get", "zf", "sf", "pc",
    "halted", "holes", "next_pc", "executed", "kind", "fault",
    "call_target", "call_return_addr", "ret_target",
    "monitor", "fastpath_blocks", "taint_apply", "install", "shadow",
    "seen", "observe", "app_leaders", "bb_counts", "last_app_bb",
    "taint_steady", "gen", "_tags", "_pages", "key", "stores", "set",
})


#: Every identifier generated source may contain.
SOURCE_NAMES_ALLOWED = CO_NAMES_ALLOWED | set(GP_REGISTERS) | {
    "def", "block", "plan", "cpu", "m", "BlockRecord", "CpuFault", "s",
    "rec", "cget", "f", "q", "t", "ap", "sh", "c", "if", "else", "and",
    "or", "not", "is", "in", "return", "True", "None",
    "E", "st", "rg", "ok", "pt", "ky", "pg", "ts",
}

#: A loop whose guest values look like Python too, traced with its
#: immediates, offsets and branch targets bound as default arguments.
HOSTILE_LOOP = """
main:
    mov ecx, 0
    mov esi, quote
__import__:
    cmp ecx, 40
    jge exec_
    load edx, [esi+0x5f5f5f5f]
    xor edx, 0x41414141
    store [esi-0x41414141], edx
    add ecx, 1
    jmp __import__
exec_:
    mov eax, 0
    ret
.data
quote: .asciz "'); __import__('os').system('id') #"
"""

#: What trace source may contain beyond a block's: its own locals, and
#: the member plans and block starts (``p1``.., ``s0``..).
TRACE_NAMES_ALLOWED = {"trace", "limit", "n", "i", "while"}

#: Needles no generated source may contain.
NEEDLES = ("__import__", "0x41414141", str(0x41414141), "'os'", "exec(",
           "lambda_", "system", "0x5f5f5f5f", str(0x5F5F5F5F),
           str(0x22272729))


#: What a per-op function's code and source may contain beyond a
#: block's: the address trace's append and the fault it raises, and its
#: own arguments and statements.
OP_CO_NAMES_ALLOWED = CO_NAMES_ALLOWED | {"append", "CpuFault"}
OP_NAMES_ALLOWED = {"op", "holes", "append", "raise", "pass"}


def _check_generated(code, source, small, names=frozenset(),
                     locals_pattern=r"[kh]\d+", co_names=CO_NAMES_ALLOWED):
    """Only register names and shape-derived small literals (``small``)
    reach the code object and the source; every identifier is allowed."""
    co_consts_allowed = set(GP_REGISTERS) | small | {None, True, ()}
    numbers_allowed = {str(n) for n in small}
    strings_allowed = {repr(reg) for reg in GP_REGISTERS}
    assert set(code.co_names) <= co_names, source
    assert set(code.co_consts) <= co_consts_allowed, source
    assert not any(needle in source for needle in NEEDLES), source
    for kind, text in _tokens(source):
        if kind == tokenize.NUMBER:
            assert text in numbers_allowed, source
        elif kind == tokenize.STRING:
            assert text in strings_allowed, source
        elif kind == tokenize.NAME:
            assert (
                text in SOURCE_NAMES_ALLOWED or text in names
                or re.fullmatch(locals_pattern, text)
            ), source


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
            for cache in kernel_caches(hth.kernel)
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
        layouts = [taint_layout(plan.taint_summary) for plan in fused]
        # Loads and stores: some blocks inline the applier's steady state.
        assert any(layouts)
        for plan in plans:
            for key, op, _ in _ops(plan):
                _check_generated(op.__code__, op_source(key), small,
                                 OP_NAMES_ALLOWED,
                                 co_names=OP_CO_NAMES_ALLOWED)
        for plan, layout in zip(fused, layouts):
            _check_generated(plan.fused.__code__, block_source(
                plan.shape, plan.fused_for, plan.taint_summary.is_noop,
                layout), small)
            for instrumentation, noop in VARIANTS:
                _check_generated(
                    compile_shape(plan.shape, instrumentation, noop, layout),
                    block_source(plan.shape, instrumentation, noop, layout),
                    small,
                )

    def test_hostile_loop_trace(self):
        hth = HTH()
        with fuse_every_block(), trace_every_loop():
            report = hth.run(assemble("/bin/hostile", HOSTILE_LOOP))
        assert report.exit_code == 0
        (head,) = _traces(hth)
        trace = head.trace
        cycle = (head,) + trace.members
        shapes = tuple(plan.shape for plan in cycle)
        noops = tuple(plan.taint_summary.is_noop for plan in cycle)
        layouts = tuple(taint_layout(plan.taint_summary) for plan in cycle)
        assert any(layouts)
        # Iteration costs and entry counts: at most every block of a
        # trace at its longest.
        small = set(range(blockjit.MAX_TRACE_BLOCKS * MAX_BLOCK_LEN + 1))
        _check_generated(
            trace.run.__code__,
            trace_source(shapes, trace.branches, head.trace_for, noops,
                         layouts),
            small, TRACE_NAMES_ALLOWED, r"[khps]\d+",
        )
        for instrumentation, _ in VARIANTS[1:]:
            for noops in itertools.product((False, True),
                                           repeat=len(cycle)):
                source = trace_source(shapes, trace.branches,
                                      instrumentation, noops, layouts)
                _check_generated(
                    blockjit._compile_trace(shapes, trace.branches,
                                            instrumentation, noops,
                                            layouts),
                    source, small, TRACE_NAMES_ALLOWED, r"[khps]\d+",
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
                    block_source(shape, instrumentation, noop, None)

    def test_trace_emitter_rejects_unknown_names(self):
        for instrumentation, _ in VARIANTS[1:]:
            for shapes in (
                ((("mov", "__import__", "eax"), ("cmp", "eax", "#"),
                  ("jz",)),),
                ((("cmp", "eax", "#"), ("exec('1')",)),),
                ((("cmp", "eax", "#"), ("jz",)),
                 (("os.system", "eax"), ("jmp",))),
            ):
                with pytest.raises(ValueError):
                    trace_source(shapes, (True,) * len(shapes),
                                 instrumentation, (False,) * len(shapes),
                                 (None,) * len(shapes))
        with pytest.raises(ValueError):
            trace_source(((("cmp", "eax", "#"), ("jz",)),), (True,),
                         ("exec('1')",), (False,), (None,))

    def test_unknown_instrumentation_is_rejected(self):
        with pytest.raises(ValueError):
            blockjit.instrumentation("taint", "__import__")
        with pytest.raises(ValueError):
            block_source((("nop",), ("jmp",)), ("exec('1')",), False, None)
