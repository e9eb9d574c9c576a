"""Reference interpreter: one instruction per step, taint per transfer.

This is the execution and dataflow semantics the block translation cache
(``repro.isa.translate``) and Harrier's per-block taint
(``Harrier.on_block``) must reproduce bit for bit:

* :func:`step` executes one instruction on a production
  :class:`~repro.isa.cpu.CPU` and returns a :class:`StepResult` saying
  *what moved where* — a list of :class:`TaintTransfer` records mapping
  each written location to the locations that produced its value;
* :func:`iter_steps` reconstructs the StepResults a translated block
  record stands for, so a plan can be compared step for step;
* :func:`apply_step` replays one StepResult's transfers over a shadow
  (plain ``TagSet.union``, no interner);
* :func:`exec_quantum` is the kernel's per-instruction scheduling loop,
  feeding every step to each Harrier among the kernel's hooks.

:func:`reference_interpreter` swaps :func:`exec_quantum` in for
``Kernel._exec_quantum``, so every machine built or run inside the block
— serial, or in a fork-started worker — executes per instruction.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple
from unittest import mock

from repro.harrier.monitor import Harrier
from repro.isa.cpu import (
    CPU,
    CPUID_VALUES,
    LOC_HARDWARE,
    LOC_IMM,
    LOC_ZERO,
    CpuFault,
    Location,
)
from repro.isa.instructions import ALU_OPCODES, Imm, Instruction, Mem, Opcode, Reg
from repro.isa.memory import MemoryFault
from repro.isa.registers import CPUID_REGISTERS
from repro.isa.translate import (
    EXIT_CONTINUE,
    EXIT_HALT,
    EXIT_SYSCALL,
    MEM_HOLE,
    BlockPlan,
    BlockRecord,
)
from repro.kernel.hooks import CompositeHooks
from repro.kernel.kernel import EXIT_FAULT, Kernel
from repro.kernel.process import ProcessState
from repro.taint.tags import EMPTY, DataSource, TagSet

_HARDWARE = TagSet.of(DataSource.HARDWARE)


def fetch(memory, addr: int) -> Instruction:
    """The instruction at ``addr``; MemoryFault when none is mapped (the
    message the translator raises for an unmapped block start)."""
    instr = memory.code.get(addr)
    if instr is None:
        raise MemoryFault(f"execute of unmapped address {addr:#x}")
    return instr


class StepKind(enum.Enum):
    NORMAL = "normal"
    SYSCALL = "syscall"   # int 0x80 reached; kernel must service it
    CPUID = "cpuid"
    HALT = "halt"         # HLT executed


def reg_loc(name: str) -> Location:
    return ("reg", name)


def mem_loc(addr: int) -> Location:
    return ("mem", addr)


@dataclass(frozen=True)
class TaintTransfer:
    """``dst``'s new value was computed from ``srcs``."""

    dst: Location
    srcs: Tuple[Location, ...]


@dataclass
class StepResult:
    """Everything Harrier needs to know about one executed instruction."""

    pc: int
    instruction: Instruction
    kind: StepKind = StepKind.NORMAL
    transfers: List[TaintTransfer] = field(default_factory=list)
    #: CALL bookkeeping for the routine-level short-circuit module.
    call_target: Optional[int] = None
    call_return_addr: Optional[int] = None
    #: RET bookkeeping.
    ret_target: Optional[int] = None
    #: Next pc after this instruction (where execution will resume).
    next_pc: int = 0


# ---------------------------------------------------------------------------
# Execution


def step(cpu: CPU) -> StepResult:
    """Execute one instruction; raises :class:`CpuFault` on faults.

    System calls (``int 0x80``) are not executed: the step returns with
    ``kind=SYSCALL`` and the pc already advanced, and the kernel performs
    the call.
    """
    if cpu.halted:
        raise CpuFault("CPU is halted")
    pc = cpu.pc
    try:
        instr = fetch(cpu.memory, pc)
    except MemoryFault as exc:
        cpu.halted = True
        raise CpuFault(str(exc)) from exc

    result = StepResult(pc=pc, instruction=instr)
    cpu.pc = pc + 1  # default fall-through; transfers may override
    op = instr.opcode

    if op is Opcode.MOV:
        _exec_mov(cpu, instr, result)
    elif op is Opcode.LOAD:
        _exec_load(cpu, instr, result)
    elif op is Opcode.STORE:
        _exec_store(cpu, instr, result)
    elif op in ALU_OPCODES:
        _exec_alu(cpu, instr, result)
    elif op is Opcode.CMP:
        _exec_cmp(cpu, instr)
    elif op in (Opcode.JMP, Opcode.JZ, Opcode.JNZ, Opcode.JL,
                Opcode.JLE, Opcode.JG, Opcode.JGE):
        _exec_jump(cpu, instr)
    elif op is Opcode.CALL:
        _exec_call(cpu, instr, result)
    elif op is Opcode.RET:
        _exec_ret(cpu, result)
    elif op is Opcode.PUSH:
        _exec_push(cpu, instr, result)
    elif op is Opcode.POP:
        _exec_pop(cpu, instr, result)
    elif op is Opcode.INT:
        vector = _imm_value(instr.a)
        if vector != 0x80:
            cpu.halted = True
            raise CpuFault(f"unsupported interrupt {vector:#x} at {pc:#x}")
        result.kind = StepKind.SYSCALL
    elif op is Opcode.CPUID:
        _exec_cpuid(cpu, result)
    elif op is Opcode.NOP:
        pass
    elif op is Opcode.HLT:
        cpu.halted = True
        result.kind = StepKind.HALT
    else:  # pragma: no cover - exhaustive
        raise CpuFault(f"unimplemented opcode {op}")

    result.next_pc = cpu.pc
    return result


def _imm_value(operand) -> int:
    if not isinstance(operand, Imm):
        raise CpuFault(f"expected immediate, got {operand}")
    return operand.value


def _source_value(cpu: CPU, operand) -> Tuple[int, Location]:
    """Value and taint location of a Reg|Imm source operand."""
    if isinstance(operand, Reg):
        return cpu.regs.get(operand.name), reg_loc(operand.name)
    if isinstance(operand, Imm):
        return operand.value, LOC_IMM
    raise CpuFault(f"bad source operand {operand}")


def _mem_addr(cpu: CPU, operand: Mem) -> int:
    return cpu.regs.get(operand.base) + operand.offset


def _set_flags(cpu: CPU, value: int) -> None:
    cpu.zf = value == 0
    cpu.sf = value < 0


def _exec_mov(cpu: CPU, instr: Instruction, result: StepResult) -> None:
    dst: Reg = instr.a  # type: ignore[assignment]
    value, src_loc = _source_value(cpu, instr.b)
    cpu.regs.set(dst.name, value)
    result.transfers.append(TaintTransfer(reg_loc(dst.name), (src_loc,)))


def _exec_load(cpu: CPU, instr: Instruction, result: StepResult) -> None:
    dst: Reg = instr.a  # type: ignore[assignment]
    addr = _mem_addr(cpu, instr.b)  # type: ignore[arg-type]
    cpu.regs.set(dst.name, cpu.memory.read(addr))
    result.transfers.append(TaintTransfer(reg_loc(dst.name), (mem_loc(addr),)))


def _exec_store(cpu: CPU, instr: Instruction, result: StepResult) -> None:
    addr = _mem_addr(cpu, instr.a)  # type: ignore[arg-type]
    value, src_loc = _source_value(cpu, instr.b)
    cpu.memory.write(addr, value)
    result.transfers.append(TaintTransfer(mem_loc(addr), (src_loc,)))


def _exec_alu(cpu: CPU, instr: Instruction, result: StepResult) -> None:
    dst: Reg = instr.a  # type: ignore[assignment]
    lhs = cpu.regs.get(dst.name)
    rhs, src_loc = _source_value(cpu, instr.b)
    op = instr.opcode
    if op is Opcode.ADD:
        value = lhs + rhs
    elif op is Opcode.SUB:
        value = lhs - rhs
    elif op is Opcode.MUL:
        value = lhs * rhs
    elif op in (Opcode.DIV, Opcode.MOD):
        if rhs == 0:
            cpu.halted = True
            raise CpuFault(f"division by zero at {result.pc:#x}")
        # Truncate toward zero, like x86 idiv, in exact integer
        # arithmetic: divide the magnitudes, then restore the sign.
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        if op is Opcode.DIV:
            value = quotient
        else:
            value = lhs - quotient * rhs
    elif op is Opcode.XOR:
        value = lhs ^ rhs
    elif op is Opcode.AND:
        value = lhs & rhs
    elif op is Opcode.OR:
        value = lhs | rhs
    elif op is Opcode.SHL:
        # Mask the count to 0-63 like x86: a guest-controlled count
        # must not allocate multi-gigabyte ints and stall the monitor.
        value = lhs << (rhs & 63)
    elif op is Opcode.SHR:
        value = lhs >> (rhs & 63)
    else:  # pragma: no cover - exhaustive
        raise CpuFault(f"bad ALU opcode {op}")
    cpu.regs.set(dst.name, value)
    _set_flags(cpu, value)

    same_reg = isinstance(instr.b, Reg) and instr.b.name == dst.name
    if op in (Opcode.XOR, Opcode.SUB) and same_reg:
        # xor r, r / sub r, r produce a constant zero: the standard
        # taint-tracking special case — the result carries no data.
        srcs: Tuple[Location, ...] = (LOC_ZERO,)
    else:
        srcs = (reg_loc(dst.name), src_loc)
    result.transfers.append(TaintTransfer(reg_loc(dst.name), srcs))


def _exec_cmp(cpu: CPU, instr: Instruction) -> None:
    lhs = cpu.regs.get(instr.a.name)  # type: ignore[union-attr]
    rhs, _ = _source_value(cpu, instr.b)
    _set_flags(cpu, lhs - rhs)


def _exec_jump(cpu: CPU, instr: Instruction) -> None:
    target = _imm_value(instr.a)
    op = instr.opcode
    taken = (
        op is Opcode.JMP
        or (op is Opcode.JZ and cpu.zf)
        or (op is Opcode.JNZ and not cpu.zf)
        or (op is Opcode.JL and cpu.sf)
        or (op is Opcode.JLE and (cpu.sf or cpu.zf))
        or (op is Opcode.JG and not (cpu.sf or cpu.zf))
        or (op is Opcode.JGE and not cpu.sf)
    )
    if taken:
        cpu.pc = target


def _exec_call(cpu: CPU, instr: Instruction, result: StepResult) -> None:
    if isinstance(instr.a, Reg):
        target = cpu.regs.get(instr.a.name)
    else:
        target = _imm_value(instr.a)
    return_addr = cpu.pc  # already advanced past the CALL
    sp = cpu.regs.get("esp") - 1
    cpu.regs.set("esp", sp)
    cpu.memory.write(sp, return_addr)
    result.transfers.append(TaintTransfer(mem_loc(sp), (LOC_ZERO,)))
    cpu.pc = target
    result.call_target = target
    result.call_return_addr = return_addr


def _exec_ret(cpu: CPU, result: StepResult) -> None:
    sp = cpu.regs.get("esp")
    target = cpu.memory.read(sp)
    cpu.regs.set("esp", sp + 1)
    cpu.pc = target
    result.ret_target = target


def _exec_push(cpu: CPU, instr: Instruction, result: StepResult) -> None:
    value, src_loc = _source_value(cpu, instr.a)
    sp = cpu.regs.get("esp") - 1
    cpu.regs.set("esp", sp)
    cpu.memory.write(sp, value)
    result.transfers.append(TaintTransfer(mem_loc(sp), (src_loc,)))


def _exec_pop(cpu: CPU, instr: Instruction, result: StepResult) -> None:
    dst: Reg = instr.a  # type: ignore[assignment]
    sp = cpu.regs.get("esp")
    cpu.regs.set(dst.name, cpu.memory.read(sp))
    cpu.regs.set("esp", sp + 1)
    result.transfers.append(TaintTransfer(reg_loc(dst.name), (mem_loc(sp),)))


def _exec_cpuid(cpu: CPU, result: StepResult) -> None:
    for reg in CPUID_REGISTERS:
        cpu.regs.set(reg, CPUID_VALUES[reg])
        result.transfers.append(TaintTransfer(reg_loc(reg), (LOC_HARDWARE,)))
    result.kind = StepKind.CPUID


def iter_steps(plan: BlockPlan, rec: BlockRecord) -> Iterator[StepResult]:
    """The StepResults :func:`step` would have returned for ``rec``.

    Rebuilt from the plan's taint templates and the record's address
    trace, transfer for transfer.
    """
    n = rec.executed
    if n == 0:
        return
    holes = rec.holes
    cursor = 0
    last = n - 1
    # The terminator retired only on a non-fault, non-budget exit.
    term_retired = rec.kind in (EXIT_CONTINUE, EXIT_SYSCALL, EXIT_HALT)
    for i in range(n):
        instr = plan.instructions[i]
        result = StepResult(pc=plan.pcs[i], instruction=instr)
        tmpl = plan.taint[i]
        addr = None
        if tmpl is not None:
            if tmpl[0]:
                addr = holes[cursor]
                cursor += 1
            for dst_spec, src_specs in tmpl[1]:
                dst = ("mem", addr) if dst_spec is MEM_HOLE else dst_spec
                srcs = tuple(
                    ("mem", addr) if s is MEM_HOLE else s for s in src_specs
                )
                result.transfers.append(TaintTransfer(dst, srcs))
        opcode = instr.opcode
        if opcode is Opcode.CPUID:
            result.kind = StepKind.CPUID
        if i == last and term_retired:
            if opcode is Opcode.INT:
                result.kind = StepKind.SYSCALL
            elif opcode is Opcode.HLT:
                result.kind = StepKind.HALT
            result.call_target = rec.call_target
            result.call_return_addr = rec.call_return_addr
            result.ret_target = rec.ret_target
            result.next_pc = rec.next_pc
        else:
            result.next_pc = plan.pcs[i] + 1
        yield result


# ---------------------------------------------------------------------------
# Monitoring


def apply_step(flow, shadow, result: StepResult) -> None:
    """Replay one step's transfers over ``shadow`` (``flow`` supplies
    the per-image BINARY tags)."""
    regs = shadow.regs
    memory = shadow.memory
    imm_tags = None  # lazily resolved per step
    for transfer in result.transfers:
        tags = EMPTY
        for src in transfer.srcs:
            kind = src[0]
            if kind == "reg":
                tags = tags.union(regs.get(src[1]))
            elif kind == "mem":
                tags = tags.union(memory.get(src[1]))
            elif kind == "imm":
                if imm_tags is None:
                    image = shadow.code_image.get(result.pc)
                    imm_tags = (
                        flow.binary_tag(image.name)
                        if image is not None
                        else EMPTY
                    )
                tags = tags.union(imm_tags)
            elif kind == "hardware":
                tags = tags.union(_HARDWARE)
            # 'zero' contributes nothing (xor r,r / call return slots)
        dst = transfer.dst
        if dst[0] == "reg":
            regs.set(dst[1], tags)
        else:
            memory.set(dst[1], tags)


def harrier_on_instruction(harrier: Harrier, proc, result: StepResult) -> None:
    """Harrier's per-instruction observation: taint, routines, BB counts."""
    shadow = harrier.shadow(proc)
    config = harrier.config
    if config.track_dataflow:
        apply_step(harrier.dataflow, shadow, result)
        if config.short_circuit_routines:
            harrier.routines.on_step(proc, shadow, result)
    if config.track_bb_frequency and result.pc in shadow.app_leaders:
        pc = result.pc
        shadow.bb_counts[pc] = shadow.bb_counts.get(pc, 0) + 1
        shadow.last_app_bb = pc


def observe_step(hooks, proc, result: StepResult) -> None:
    """Deliver one step to every Harrier among ``hooks``."""
    if isinstance(hooks, CompositeHooks):
        for child in hooks.children:
            observe_step(child, proc, result)
    elif isinstance(hooks, Harrier):
        harrier_on_instruction(hooks, proc, result)


def exec_quantum(kernel: Kernel, proc, deadline: int) -> None:
    """Stand-in for ``Kernel._exec_quantum``: one instruction per tick."""
    quantum = kernel.quantum
    if kernel.fault_injector is not None:
        quantum = kernel.fault_injector.quantum(quantum)
    for _ in range(quantum):
        if proc.state is not ProcessState.RUNNABLE or kernel.now >= deadline:
            return
        try:
            result = step(proc.cpu)
        except CpuFault as fault:
            kernel._fault_log.append((proc.pid, str(fault)))
            kernel.exit_process(proc, EXIT_FAULT)
            return
        kernel.now += 1
        kernel.instructions += 1
        observe_step(kernel.hooks, proc, result)
        if result.kind is StepKind.SYSCALL:
            kernel._service_syscall(proc)
        elif result.kind is StepKind.HALT:
            kernel._fault_log.append((proc.pid, "HLT executed"))
            kernel.exit_process(proc, EXIT_FAULT)
            return


@contextmanager
def reference_interpreter():
    """Run every kernel per instruction for the duration of the block."""
    with mock.patch.object(Kernel, "_exec_quantum", exec_quantum):
        yield
