"""Property-based tests over the assembler + CPU: randomized straight-line
programs must compute the same results as a Python model — on the
reference interpreter and on translated blocks — and taint must stay
conservative."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hth import HTH
from repro.isa import CPU, FlatMemory, assemble
from repro.isa.translate import translate_block
from repro.taint import DataSource
from tests.oracles.interpreter import step as interpret

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
        addr = proc.image_map.app.symbol_addr("out")
        tags = shadow.memory.get(addr)
        assert tags.sources() <= {DataSource.BINARY}
        for name in tags.names_for(DataSource.BINARY):
            assert name == "/bin/prop"
