"""Mini-ISA substrate: instruction set, assembler, images, block translator
and block JIT.

This package replaces the paper's x86/PIN environment with a small register
machine that preserves everything Harrier observes: per-instruction data
movement, hardcoded ``.data`` constants, basic blocks, CPUID, and the
``int 0x80`` syscall gate.
"""

from repro.isa.assembler import Assembler, AssemblyError, assemble
from repro.isa.cpu import (
    CPU,
    CpuFault,
    LOC_HARDWARE,
    LOC_IMM,
    LOC_ZERO,
)
from repro.isa.image import DataRelocation, Image, TextRelocation
from repro.isa.instructions import (
    CONTROL_TRANSFER_OPCODES,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Reg,
)
from repro.isa.memory import (
    APP_BASE,
    FlatMemory,
    HEAP_BASE,
    LIBRARY_BASE,
    LIBRARY_STRIDE,
    MemoryFault,
    STACK_TOP,
)
from repro.isa.registers import (
    CPUID_REGISTERS,
    GP_REGISTERS,
    RegisterFile,
    SYSCALL_ARG_REGISTERS,
)
from repro.isa.translate import (
    EXIT_BUDGET,
    EXIT_CONTINUE,
    EXIT_FAULT,
    EXIT_HALT,
    EXIT_SYSCALL,
    BlockPlan,
    BlockRecord,
    translate_block,
)

__all__ = [
    "assemble",
    "Assembler",
    "AssemblyError",
    "Image",
    "TextRelocation",
    "DataRelocation",
    "Instruction",
    "Opcode",
    "Reg",
    "Imm",
    "Mem",
    "CONTROL_TRANSFER_OPCODES",
    "CPU",
    "CpuFault",
    "LOC_IMM",
    "LOC_HARDWARE",
    "LOC_ZERO",
    "FlatMemory",
    "MemoryFault",
    "STACK_TOP",
    "HEAP_BASE",
    "APP_BASE",
    "LIBRARY_BASE",
    "LIBRARY_STRIDE",
    "GP_REGISTERS",
    "CPUID_REGISTERS",
    "SYSCALL_ARG_REGISTERS",
    "RegisterFile",
    "BlockPlan",
    "BlockRecord",
    "translate_block",
    "EXIT_CONTINUE",
    "EXIT_SYSCALL",
    "EXIT_HALT",
    "EXIT_FAULT",
    "EXIT_BUDGET",
]
