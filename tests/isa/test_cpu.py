"""Reference interpreter tests: semantics, flags, stack, effect traces.

The interpreter (``tests/oracles``) is the specification the block
translator is checked against, so its own semantics are pinned here.
"""

import pytest

from repro.isa import (
    CPU,
    CpuFault,
    FlatMemory,
    Imm,
    Instruction,
    LOC_HARDWARE,
    LOC_IMM,
    LOC_ZERO,
    Mem,
    Opcode,
    Reg,
)
from repro.isa.cpu import CPUID_VALUES
from tests.oracles.interpreter import (
    StepKind,
    TaintTransfer,
    mem_loc,
    reg_loc,
)
from tests.oracles.interpreter import step as interpret


def make_cpu(*instructions, entry=0):
    mem = FlatMemory()
    mem.map_code(entry, instructions)
    cpu = CPU(mem, entry=entry)
    cpu.regs.set("esp", 0x1000)
    return cpu


def run(cpu, steps):
    results = []
    for _ in range(steps):
        results.append(interpret(cpu))
    return results


class TestDataMovement:
    def test_mov_imm(self):
        cpu = make_cpu(Instruction(Opcode.MOV, Reg("eax"), Imm(42)))
        (res,) = run(cpu, 1)
        assert cpu.regs.get("eax") == 42
        assert res.transfers == [TaintTransfer(reg_loc("eax"), (LOC_IMM,))]

    def test_mov_reg(self):
        cpu = make_cpu(Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")))
        cpu.regs.set("eax", 7)
        (res,) = run(cpu, 1)
        assert cpu.regs.get("ebx") == 7
        assert res.transfers == [
            TaintTransfer(reg_loc("ebx"), (reg_loc("eax"),))
        ]

    def test_load_store_roundtrip(self):
        cpu = make_cpu(
            Instruction(Opcode.STORE, Mem("ebx", 2), Imm(9)),
            Instruction(Opcode.LOAD, Reg("ecx"), Mem("ebx", 2)),
        )
        cpu.regs.set("ebx", 0x100)
        res = run(cpu, 2)
        assert cpu.regs.get("ecx") == 9
        assert res[0].transfers == [TaintTransfer(mem_loc(0x102), (LOC_IMM,))]
        assert res[1].transfers == [
            TaintTransfer(reg_loc("ecx"), (mem_loc(0x102),))
        ]

    def test_unwritten_memory_reads_zero(self):
        cpu = make_cpu(Instruction(Opcode.LOAD, Reg("eax"), Mem("ebx", 0)))
        cpu.regs.set("eax", 123)
        run(cpu, 1)
        assert cpu.regs.get("eax") == 0


class TestAlu:
    @pytest.mark.parametrize(
        "op,lhs,rhs,expected",
        [
            (Opcode.ADD, 3, 4, 7),
            (Opcode.SUB, 3, 4, -1),
            (Opcode.MUL, 3, 4, 12),
            (Opcode.DIV, 7, 2, 3),
            (Opcode.DIV, -7, 2, -3),  # truncation toward zero
            (Opcode.MOD, 7, 2, 1),
            (Opcode.XOR, 0b101, 0b011, 0b110),
            (Opcode.AND, 0b101, 0b011, 0b001),
            (Opcode.OR, 0b101, 0b011, 0b111),
            (Opcode.SHL, 1, 4, 16),
            (Opcode.SHR, 16, 2, 4),
        ],
    )
    def test_alu_ops(self, op, lhs, rhs, expected):
        cpu = make_cpu(Instruction(op, Reg("eax"), Imm(rhs)))
        cpu.regs.set("eax", lhs)
        run(cpu, 1)
        assert cpu.regs.get("eax") == expected

    def test_div_by_zero_faults(self):
        cpu = make_cpu(Instruction(Opcode.DIV, Reg("eax"), Imm(0)))
        with pytest.raises(CpuFault):
            interpret(cpu)
        assert cpu.halted

    def test_alu_sets_flags(self):
        cpu = make_cpu(Instruction(Opcode.SUB, Reg("eax"), Imm(5)))
        cpu.regs.set("eax", 5)
        run(cpu, 1)
        assert cpu.zf and not cpu.sf

    @pytest.mark.parametrize(
        ("op", "lhs", "count", "expected"),
        [
            # counts are masked to 0-63 like x86: 64 == 0, 65 == 1, and a
            # guest-controlled huge count can't allocate a gigantic int
            (Opcode.SHL, 1, 64, 1),
            (Opcode.SHL, 1, 65, 2),
            (Opcode.SHL, 3, 1 << 40, 3),
            (Opcode.SHR, 16, 64, 16),
            (Opcode.SHL, 1, -1, 1 << 63),  # -1 & 63 == 63
            (Opcode.SHR, 1 << 63, -1, 1),
        ],
    )
    def test_shift_counts_masked(self, op, lhs, count, expected):
        cpu = make_cpu(Instruction(op, Reg("eax"), Reg("ebx")))
        cpu.regs.set("eax", lhs)
        cpu.regs.set("ebx", count)
        run(cpu, 1)
        assert cpu.regs.get("eax") == expected

    def test_alu_transfer_unions_both_operands(self):
        cpu = make_cpu(Instruction(Opcode.ADD, Reg("eax"), Reg("ebx")))
        (res,) = run(cpu, 1)
        assert res.transfers == [
            TaintTransfer(reg_loc("eax"), (reg_loc("eax"), reg_loc("ebx")))
        ]

    def test_xor_self_clears_taint(self):
        cpu = make_cpu(Instruction(Opcode.XOR, Reg("eax"), Reg("eax")))
        (res,) = run(cpu, 1)
        assert res.transfers == [TaintTransfer(reg_loc("eax"), (LOC_ZERO,))]
        assert cpu.regs.get("eax") == 0

    def test_sub_self_clears_taint(self):
        cpu = make_cpu(Instruction(Opcode.SUB, Reg("ebx"), Reg("ebx")))
        (res,) = run(cpu, 1)
        assert res.transfers == [TaintTransfer(reg_loc("ebx"), (LOC_ZERO,))]


class TestControlFlow:
    def test_jmp(self):
        cpu = make_cpu(
            Instruction(Opcode.JMP, Imm(2)),
            Instruction(Opcode.MOV, Reg("eax"), Imm(1)),
            Instruction(Opcode.MOV, Reg("eax"), Imm(2)),
        )
        run(cpu, 2)
        assert cpu.regs.get("eax") == 2

    @pytest.mark.parametrize(
        "op,value,taken",
        [
            (Opcode.JZ, 0, True),
            (Opcode.JZ, 1, False),
            (Opcode.JNZ, 1, True),
            (Opcode.JNZ, 0, False),
            (Opcode.JL, -1, True),
            (Opcode.JL, 0, False),
            (Opcode.JLE, 0, True),
            (Opcode.JLE, 1, False),
            (Opcode.JG, 1, True),
            (Opcode.JG, 0, False),
            (Opcode.JGE, 0, True),
            (Opcode.JGE, -1, False),
        ],
    )
    def test_conditional_branches(self, op, value, taken):
        cpu = make_cpu(
            Instruction(Opcode.CMP, Reg("eax"), Imm(0)),
            Instruction(op, Imm(5)),
        )
        cpu.regs.set("eax", value)
        run(cpu, 2)
        assert (cpu.pc == 5) is taken

    def test_call_ret(self):
        # 0: call 3 ; 1: mov eax, 99 ; 2: hlt ; 3: ret
        cpu = make_cpu(
            Instruction(Opcode.CALL, Imm(3)),
            Instruction(Opcode.MOV, Reg("eax"), Imm(99)),
            Instruction(Opcode.HLT),
            Instruction(Opcode.RET),
        )
        res = run(cpu, 3)
        assert res[0].call_target == 3
        assert res[0].call_return_addr == 1
        assert res[1].ret_target == 1
        assert cpu.regs.get("eax") == 99
        assert cpu.regs.get("esp") == 0x1000  # balanced

    def test_indirect_call(self):
        cpu = make_cpu(
            Instruction(Opcode.CALL, Reg("ebx")),
            Instruction(Opcode.NOP),
            Instruction(Opcode.RET),
        )
        cpu.regs.set("ebx", 2)
        (res,) = run(cpu, 1)
        assert res.call_target == 2
        assert cpu.pc == 2


class TestStack:
    def test_push_pop(self):
        cpu = make_cpu(
            Instruction(Opcode.PUSH, Imm(11)),
            Instruction(Opcode.PUSH, Reg("eax")),
            Instruction(Opcode.POP, Reg("ebx")),
            Instruction(Opcode.POP, Reg("ecx")),
        )
        cpu.regs.set("eax", 22)
        run(cpu, 4)
        assert cpu.regs.get("ebx") == 22
        assert cpu.regs.get("ecx") == 11
        assert cpu.regs.get("esp") == 0x1000

    def test_push_transfer_records_stack_cell(self):
        cpu = make_cpu(Instruction(Opcode.PUSH, Reg("eax")))
        (res,) = run(cpu, 1)
        assert res.transfers == [
            TaintTransfer(mem_loc(0xFFF), (reg_loc("eax"),))
        ]


class TestSystem:
    def test_int_0x80_yields_syscall(self):
        cpu = make_cpu(Instruction(Opcode.INT, Imm(0x80)))
        (res,) = run(cpu, 1)
        assert res.kind is StepKind.SYSCALL
        assert cpu.pc == 1  # advanced past the INT

    def test_other_interrupt_faults(self):
        cpu = make_cpu(Instruction(Opcode.INT, Imm(3)))
        with pytest.raises(CpuFault):
            interpret(cpu)

    def test_cpuid_sets_registers_and_hardware_taint(self):
        cpu = make_cpu(Instruction(Opcode.CPUID))
        (res,) = run(cpu, 1)
        assert res.kind is StepKind.CPUID
        for reg in ("eax", "ebx", "ecx", "edx"):
            assert cpu.regs.get(reg) == CPUID_VALUES[reg]
        assert all(t.srcs == (LOC_HARDWARE,) for t in res.transfers)
        assert len(res.transfers) == 4

    def test_hlt_halts(self):
        cpu = make_cpu(Instruction(Opcode.HLT))
        (res,) = run(cpu, 1)
        assert res.kind is StepKind.HALT
        assert cpu.halted
        with pytest.raises(CpuFault):
            interpret(cpu)

    def test_fetch_unmapped_faults(self):
        cpu = make_cpu(Instruction(Opcode.NOP))
        interpret(cpu)
        with pytest.raises(CpuFault):
            interpret(cpu)

    def test_copy_preserves_state(self):
        cpu = make_cpu(Instruction(Opcode.MOV, Reg("eax"), Imm(5)),
                       Instruction(Opcode.NOP))
        interpret(cpu)
        mem2 = cpu.memory.copy()
        dup = cpu.copy(mem2)
        assert dup.pc == cpu.pc
        assert dup.regs.get("eax") == 5
        dup.regs.set("eax", 6)
        assert cpu.regs.get("eax") == 5

    def test_step_result_next_pc(self):
        cpu = make_cpu(Instruction(Opcode.JMP, Imm(7)))
        (res,) = run(cpu, 1)
        assert res.next_pc == 7
