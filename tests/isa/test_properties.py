"""Property-based tests over the assembler + CPU: randomized straight-line
programs must compute the same results as a Python model — on the
reference interpreter and on translated blocks — randomized counted
loops must run in production (hot blocks fused, hot loops traced, a lone
process in slices or one quantum per pass) as on the reference
interpreter, loops over tainted input in a forked pair of
processes must leave the same shadow state whether generated code
inlines the taint applier's steady state or calls the applier, and
taint must stay conservative."""

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hth import HTH
from repro.isa import CPU, FlatMemory, assemble
from repro.isa.translate import translate_block
from repro.taint import DataSource
from tests.oracles import (
    applier_calls,
    fuse_every_block,
    one_quantum_per_pass,
    reference_interpreter,
    trace_every_loop,
)
from tests.oracles.interpreter import step as interpret
from tests.oracles.readers import app_image, cell_tags

_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "xor": lambda a, b: a ^ b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
}

_op_strategy = st.sampled_from(sorted(_OPS))
_val_strategy = st.integers(-1000, 1000)


@st.composite
def straight_line_program(draw):
    """A random sequence of ALU ops on eax, plus the expected result."""
    initial = draw(_val_strategy)
    steps = draw(
        st.lists(st.tuples(_op_strategy, _val_strategy), min_size=1,
                 max_size=12)
    )
    lines = [f"main:", f"    mov eax, {initial}"]
    value = initial
    for op, operand in steps:
        lines.append(f"    {op} eax, {operand}")
        value = _OPS[op](value, operand)
    lines.append("    ret")
    return "\n".join(lines), value


class TestComputationalEquivalence:
    @given(straight_line_program())
    @settings(max_examples=60, deadline=None)
    def test_alu_sequences_match_python(self, program):
        source, expected = program
        image = assemble("/bin/prop", source)
        memory = FlatMemory()
        memory.map_code(0x1000, image.text)
        cpu = CPU(memory, entry=0x1000)
        cpu.regs.set("esp", 0x8000)
        memory.write(0x7FFF, 0xDEAD)  # fake return address for ret
        for _ in range(len(image.text) + 1):
            result = interpret(cpu)
            if result.ret_target is not None:
                break
        assert cpu.regs.get("eax") == expected

    @given(straight_line_program())
    @settings(max_examples=60, deadline=None)
    def test_alu_sequences_match_python_translated(self, program):
        source, expected = program
        image = assemble("/bin/prop", source)
        memory = FlatMemory()
        memory.map_code(0x1000, image.text)
        cpu = CPU(memory, entry=0x1000)
        cpu.regs.set("esp", 0x8000)
        # Straight-line code ending in ret is one block.
        rec = translate_block(memory, 0x1000).execute(cpu, len(image.text))
        assert rec.executed == len(image.text)
        assert rec.ret_target is not None
        assert cpu.regs.get("eax") == expected

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_word_data_round_trips_through_image(self, values):
        words = ", ".join(str(v) for v in values)
        image = assemble("/bin/t", f"main: ret\n.data\ntbl: .word {words}")
        base = image.symbols["tbl"]
        assert [image.data[base + i] for i in range(len(values))] == values


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
    @given(straight_line_program())
    @settings(max_examples=20, deadline=None)
    def test_constant_computation_is_binary_only(self, program):
        """A value computed purely from immediates carries at most
        BINARY taint (of the program) — never USER/FILE/SOCKET."""
        source, _ = program
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
