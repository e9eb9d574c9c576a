"""Property-based tests over the assembler + CPU: randomized straight-line
programs over every straight-line opcode must compute the same state as
a Python model — on the reference interpreter, on translated blocks run
op by op and on fused blocks — randomized counted loops must run in
production (hot blocks fused, hot loops traced, a lone process in slices
or one quantum per pass) as on the reference interpreter, loops over
tainted input in a forked pair of processes must leave the same shadow
state whether generated code inlines the taint applier's steady state or
calls the applier, and taint must stay conservative."""

import contextlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hth import HTH
from repro.isa import CPU, FlatMemory, assemble
from repro.isa.cpu import CPUID_VALUES, CpuFault
from repro.isa.instructions import Imm, Instruction, Mem, Opcode, Reg
from repro.isa.registers import GP_REGISTERS
from repro.isa.translate import EXIT_CONTINUE, translate_block
from repro.taint import DataSource
from tests.oracles import (
    applier_calls,
    closure_only,
    fuse_every_block,
    one_quantum_per_pass,
    reference_interpreter,
    trace_every_loop,
)
from tests.oracles.interpreter import step as interpret
from tests.oracles.readers import app_image, cell_tags

# -- straight-line programs over every op --------------------------------------

#: Where a program's code is mapped.
_BASE = 0x1000

#: Register and immediate values: small ones, ones past 2**64, and
#: addresses into the cells a program starts with.
_VALUE = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from((2 ** 64, 2 ** 64 + 1, -2 ** 64, 2 ** 64 - 1,
                     3 ** 50)),
    st.integers(0x100, 0x104),
)
#: Shift counts, from in range to past 64 and negative.
_COUNT = st.one_of(st.integers(0, 63), st.integers(64, 200),
                   st.integers(-70, -1), st.just(2 ** 64 + 5))
#: Divisors: zero (a fault), negative, and huge.
_DIVISOR = st.one_of(st.just(0), st.integers(-9, 9), _VALUE)

_REG = st.sampled_from(GP_REGISTERS).map(Reg)
_MEM = st.builds(Mem, st.sampled_from(GP_REGISTERS), st.integers(-2, 2))

_MODEL_ALU = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.SHL: lambda a, b: a << (b & 63),
    Opcode.SHR: lambda a, b: a >> (b & 63),
    Opcode.DIV: lambda a, b: int(Fraction(a, b)),
    Opcode.MOD: lambda a, b: a - int(Fraction(a, b)) * b,
}


def _instr(opcode, *operands):
    return st.builds(Instruction, st.just(opcode), *operands)


def _sourced(opcode, values):
    """``opcode reg, reg|imm`` with immediates drawn from ``values``."""
    return _instr(opcode, _REG, st.one_of(_REG, values.map(Imm)))


_STRAIGHT = st.one_of(
    _sourced(Opcode.MOV, _VALUE),
    _sourced(Opcode.CMP, _VALUE),
    *(_sourced(op, _VALUE) for op in (Opcode.ADD, Opcode.SUB, Opcode.MUL,
                                      Opcode.XOR, Opcode.AND, Opcode.OR)),
    *(_sourced(op, _COUNT) for op in (Opcode.SHL, Opcode.SHR)),
    *(_sourced(op, _DIVISOR) for op in (Opcode.DIV, Opcode.MOD)),
    _instr(Opcode.LOAD, _REG, _MEM),
    _instr(Opcode.STORE, _MEM, st.one_of(_REG, _VALUE.map(Imm))),
    _instr(Opcode.PUSH, st.one_of(_REG, _VALUE.map(Imm))),
    _instr(Opcode.POP, _REG),
    st.just(Instruction(Opcode.PUSH, Reg("esp"))),
    st.just(Instruction(Opcode.POP, Reg("esp"))),
    st.just(Instruction(Opcode.CPUID)),
    st.just(Instruction(Opcode.NOP)),
)

_EXIT = st.one_of(
    st.just(Instruction(Opcode.RET)),
    _instr(Opcode.CALL, _REG),
    st.just(Instruction(Opcode.CALL, Reg("esp"))),
    _instr(Opcode.CALL, st.integers(0, 0x2000).map(Imm)),
)


@st.composite
def straight_line_program(draw):
    """A random straight-line program ending in RET or CALL, and the
    machine state it starts from (registers, flags, data cells)."""
    program = draw(st.lists(_STRAIGHT, min_size=1, max_size=12))
    program.append(draw(_EXIT))
    regs = {reg: draw(_VALUE) for reg in GP_REGISTERS}
    cells = draw(st.dictionaries(st.integers(0xFC, 0x108), _VALUE,
                                 max_size=6))
    return program, (regs, draw(st.booleans()), draw(st.booleans()), cells)


def _model(program, start):
    """The Python model: the state ``program`` leaves, and the address
    each instruction that makes one made, in order."""
    regs, zf, sf, cells = start
    regs, cells, holes = dict(regs), dict(cells), []
    halted = False

    def value(operand):
        return regs[operand.name] if type(operand) is Reg else operand.value

    def push(word):
        regs["esp"] -= 1
        holes.append(regs["esp"])
        cells[regs["esp"]] = word

    for index, instr in enumerate(program):
        pc = _BASE + index
        op, a, b = instr.opcode, instr.a, instr.b
        if op is Opcode.MOV:
            regs[a.name] = value(b)
        elif op is Opcode.LOAD:
            holes.append(regs[b.base] + b.offset)
            regs[a.name] = cells.get(holes[-1], 0)
        elif op is Opcode.STORE:
            holes.append(regs[a.base] + a.offset)
            cells[holes[-1]] = value(b)
        elif op in _MODEL_ALU or op is Opcode.CMP:
            lhs, rhs = regs[a.name], value(b)
            if op in (Opcode.DIV, Opcode.MOD) and rhs == 0:
                halted = True
                pc += 1
                break
            if op is Opcode.CMP:
                result = lhs - rhs
            else:
                result = regs[a.name] = _MODEL_ALU[op](lhs, rhs)
            zf, sf = result == 0, result < 0
        elif op is Opcode.PUSH:
            push(value(a))  # push esp: esp as it was before the push
        elif op is Opcode.CALL:
            target = value(a)  # call esp: esp as it was before the call
            push(pc + 1)
            pc = target
        elif op is Opcode.POP:
            holes.append(regs["esp"])
            regs[a.name] = cells.get(regs["esp"], 0)
            regs["esp"] = holes[-1] + 1
        elif op is Opcode.RET:
            pc = cells.get(regs["esp"], 0)
            regs["esp"] += 1
        elif op is Opcode.CPUID:
            regs.update(CPUID_VALUES)
        else:
            assert op is Opcode.NOP, op
    return {"regs": regs, "zf": zf, "sf": sf, "cells": cells,
            "pc": pc, "halted": halted}, holes


def _machine(program, start):
    regs, zf, sf, cells = start
    memory = FlatMemory()
    memory.map_code(_BASE, program)
    memory.cells.update(cells)
    cpu = CPU(memory, entry=_BASE)
    cpu.regs._values.update(regs)
    cpu.zf, cpu.sf = zf, sf
    return cpu


def _state(cpu):
    return {"regs": dict(cpu.regs._values), "zf": cpu.zf, "sf": cpu.sf,
            "cells": dict(cpu.memory.cells), "pc": cpu.pc,
            "halted": cpu.halted}


def _interpreted(program, start):
    """The state the reference interpreter leaves."""
    cpu = _machine(program, start)
    for _ in program:
        try:
            interpret(cpu)
        except CpuFault:
            break
    return _state(cpu)


def _translated(program, start):
    """The state, and the address trace, translated blocks leave: run
    block by block until one faults or ends with the program's exit."""
    cpu = _machine(program, start)
    last = _BASE + len(program) - 1
    holes = []
    while True:
        plan = translate_block(cpu.memory, cpu.pc)
        rec = plan.execute(cpu, plan.length)
        holes += rec.holes
        if rec.kind != EXIT_CONTINUE or plan.pcs[-1] == last:
            return _state(cpu), holes


class TestComputationalEquivalence:
    @given(straight_line_program())
    @settings(max_examples=300, deadline=None)
    def test_alu_sequences_match_python(self, program):
        """The reference interpreter computes the model's state."""
        program, start = program
        assert _interpreted(program, start) == _model(program, start)[0]

    @given(straight_line_program())
    @settings(max_examples=300, deadline=None)
    def test_alu_sequences_match_python_translated(self, program):
        """Translated blocks run op by op (the generated per-op
        functions) and fused compute the model's state and address
        trace."""
        program, start = program
        expected = _model(program, start)
        with closure_only():
            assert _translated(program, start) == expected
        with fuse_every_block():
            assert _translated(program, start) == expected

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_word_data_round_trips_through_image(self, values):
        words = ", ".join(str(v) for v in values)
        image = assemble("/bin/t", f"main: ret\n.data\ntbl: .word {words}")
        base = image.symbols["tbl"]
        assert [image.data[base + i] for i in range(len(values))] == values


_IMM_OPS = ("add", "sub", "mul", "xor", "and", "or")


@st.composite
def immediate_program(draw):
    """A random sequence of ALU ops on eax with immediate sources."""
    lines = ["main:", f"    mov eax, {draw(st.integers(-1000, 1000))}"]
    for op, operand in draw(st.lists(
            st.tuples(st.sampled_from(_IMM_OPS), st.integers(-1000, 1000)),
            min_size=1, max_size=12)):
        lines.append(f"    {op} eax, {operand}")
    lines.append("    ret")
    return "\n".join(lines)
_LOOP_OPS = ("add", "sub", "mul", "xor", "and", "or", "shl", "shr")


@st.composite
def counted_loop(draw):
    """A counted loop over a small table: a load, ALU ops on the value,
    a branch on it around a store back into the table, tested at the
    top or the bottom; and a random scheduling quantum."""
    count = draw(st.integers(1, 120))
    table = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(_LOOP_OPS), st.integers(-9, 9)),
        max_size=4,
    ))
    threshold = draw(st.integers(-60, 60))
    top_tested = draw(st.booleans())
    lines = [
        "main:",
        "    mov ecx, 0",
        "    mov esi, table",
        f"    mov eax, {draw(st.integers(-9, 9))}",
        "loop:",
    ]
    if top_tested:
        lines += [f"    cmp ecx, {count}", "    jge done"]
    lines += [
        "    mov ebx, ecx",
        f"    mod ebx, {len(table)}",
        "    add ebx, esi",
        "    load edx, [ebx]",
    ]
    lines += [f"    {op} edx, {value}" for op, value in ops]
    lines += [
        "    add eax, edx",
        f"    cmp edx, {threshold}",
        "    jl skip",
        "    store [ebx], eax",
        "skip:",
        "    add ecx, 1",
    ]
    if top_tested:
        lines += ["    jmp loop", "done:"]
    else:
        lines += [f"    cmp ecx, {count}", "    jl loop"]
    lines += [
        "    mov edi, out",
        "    store [edi], eax",
        "    mov eax, 0",
        "    ret",
        ".data",
        "table: .word " + ", ".join(str(v) for v in table),
        "out: .space 1",
    ]
    return "\n".join(lines) + "\n", draw(st.integers(1, 64))


def _loop_run(source, quantum):
    hth = HTH()
    hth.kernel.quantum = quantum
    report = hth.run(assemble("/bin/loop", source))
    return hth, report


def _loop_fingerprint(source, quantum):
    hth, report = _loop_run(source, quantum)
    proc = hth.kernel.procs[1]
    shadow = hth.harrier.shadow(proc)
    return {
        "verdict": report.verdict,
        "warnings": [repr(w) for w in report.warnings],
        "events": [str(e) for e in report.events],
        "console": report.console_output,
        "exit_code": report.exit_code,
        "reason": report.result.reason,
        "ticks": report.result.ticks,
        "instructions": report.result.instructions,
        "faults": report.faults,
        "regs": dict(proc.cpu.regs._values),
        "flags": (proc.cpu.zf, proc.cpu.sf),
        "cells": dict(proc.memory.cells),
        "bb_counts": dict(shadow.bb_counts),
        "last_app_bb": shadow.last_app_bb,
        "reg_tags": shadow.regs.snapshot(),
        "cell_tags": cell_tags(shadow.memory),
    }


#: One ``counted_loop`` draw: 40 bottom-tested iterations.
_COUNTED_LOOP = """
main:
    mov ecx, 0
    mov esi, table
    mov eax, 3
loop:
    mov ebx, ecx
    mod ebx, 3
    add ebx, esi
    load edx, [ebx]
    xor edx, 5
    add eax, edx
    cmp edx, 4
    jl skip
    store [ebx], eax
skip:
    add ecx, 1
    cmp ecx, 40
    jl loop
    mov edi, out
    store [edi], eax
    mov eax, 0
    ret
.data
table: .word 7, -2, 9
out: .space 1
"""


class TestLoopEquivalence:
    @given(counted_loop())
    @settings(max_examples=100, deadline=None)
    def test_counted_loops_match_the_reference_interpreter(self, loop):
        """In slices (the loop's process runs alone), and one quantum
        per pass, where the random quantum cuts blocks short."""
        source, quantum = loop
        with reference_interpreter():
            reference = _loop_fingerprint(source, quantum)
        assert _loop_fingerprint(source, quantum) == reference
        with one_quantum_per_pass():
            assert _loop_fingerprint(source, quantum) == reference

    def test_one_quantum_per_pass_reaches_the_prefix_path(self):
        """The property above still runs blocks cut short by a quantum
        end, which a lone process's slices mostly avoid."""
        source = _COUNTED_LOOP
        with one_quantum_per_pass():
            hth, _ = _loop_run(source, 7)
        assert hth.harrier.slowpath_blocks > 0
        sliced, _ = _loop_run(source, 7)
        assert sliced.harrier.slowpath_blocks < hth.harrier.slowpath_blocks


@st.composite
def forked_taint_loop(draw):
    """Tainted stdin read into a table, then a fork; parent and child
    both run a counted loop that loads from the table, mixes the value
    into ``eax`` and stores either it or a clean zero back at an offset
    (an empty store over untagged cells, and over cells whose page the
    fork shares); and a random scheduling quantum."""
    size = draw(st.integers(1, 6))
    stdin = draw(st.text("abc", max_size=size))
    count = draw(st.integers(1, 80))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(_LOOP_OPS), st.integers(-9, 9)),
        max_size=3,
    ))
    offset = draw(st.integers(0, size))
    clean = draw(st.booleans())
    lines = [
        "main:",
        "    mov ebx, 0",
        "    mov ecx, table",
        f"    mov edx, {size}",
        "    call read",
        "    call fork",
        "    mov ecx, 0",
        "    mov esi, table",
        "loop:",
        "    mov ebx, ecx",
        f"    mod ebx, {size}",
        "    add ebx, esi",
        "    load edx, [ebx]",
    ]
    lines += [f"    {op} edx, {value}" for op, value in ops]
    lines += ["    add eax, edx"]
    if clean:
        lines += ["    xor edi, edi", f"    store [ebx+{offset}], edi"]
    else:
        lines += [f"    store [ebx+{offset}], eax"]
    lines += [
        "    add ecx, 1",
        f"    cmp ecx, {count}",
        "    jl loop",
        "    mov eax, 0",
        "    ret",
        ".data",
        f"table: .space {2 * size + 1}",
    ]
    return "\n".join(lines) + "\n", stdin, draw(st.integers(1, 64))


def _forked_fingerprint(source, stdin, quantum):
    hth = HTH()
    hth.kernel.quantum = quantum
    report = hth.run(assemble("/bin/forked", source), stdin=stdin)
    procs = []
    for pid in sorted(hth.kernel.procs):
        proc = hth.kernel.procs[pid]
        shadow = hth.harrier.shadow(proc)
        procs.append((
            pid,
            dict(proc.cpu.regs._values),
            dict(proc.memory.cells),
            dict(shadow.bb_counts),
            shadow.regs.snapshot(),
            cell_tags(shadow.memory),
        ))
    return {
        "verdict": report.verdict,
        "events": [str(e) for e in report.events],
        "exit_codes": report.result.exit_codes,
        "instructions": report.result.instructions,
        "procs": procs,
        "counters": (hth.harrier.fastpath_blocks,
                     hth.harrier.slowpath_blocks),
    }


@contextlib.contextmanager
def _traced(*oracles):
    with fuse_every_block(), trace_every_loop(), \
            contextlib.ExitStack() as stack:
        for oracle in oracles:
            stack.enter_context(oracle())
        yield


class TestInlinedApplierAcrossFork:
    @given(forked_taint_loop())
    @settings(max_examples=60, deadline=None)
    def test_inlined_steady_state_matches_applier_calls(self, loop):
        source, stdin, quantum = loop
        with _traced():
            inlined = _forked_fingerprint(source, stdin, quantum)
        with _traced(applier_calls):
            called = _forked_fingerprint(source, stdin, quantum)
        assert inlined == called
        with reference_interpreter():
            reference = _forked_fingerprint(source, stdin, quantum)
        inlined.pop("counters")
        reference.pop("counters")
        assert inlined == reference
        assert len(inlined["procs"]) == 2


class TestTaintConservativeness:
    @given(immediate_program())
    @settings(max_examples=20, deadline=None)
    def test_constant_computation_is_binary_only(self, source):
        """A value computed purely from immediates carries at most
        BINARY taint (of the program) — never USER/FILE/SOCKET."""
        # store the result so the shadow memory is inspectable
        source = source.replace(
            "    ret",
            "    mov edi, out\n    store [edi], eax\n    mov eax, 0\n    ret",
        )
        source += "\n.data\nout: .space 1\n"
        hth = HTH()
        proc_holder = {}
        original = hth.kernel.spawn

        def capture(*a, **k):
            proc_holder["proc"] = original(*a, **k)
            return proc_holder["proc"]

        hth.kernel.spawn = capture
        from repro.isa import assemble as asm

        hth.run(asm("/bin/prop", source))
        proc = proc_holder["proc"]
        shadow = hth.harrier.shadow(proc)
        addr = app_image(proc.image_map).symbol_addr("out")
        tags = shadow.memory.get(addr)
        assert tags.sources() <= {DataSource.BINARY}
        for name in tags.names_for(DataSource.BINARY):
            assert name == "/bin/prop"
