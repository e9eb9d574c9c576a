"""CPU context: registers, flags and program counter over a memory.

Execution lives in :mod:`repro.isa.translate`: basic blocks are compiled
once and the compiled plans run against a :class:`CPU`, the same way
PIN's code cache runs translated traces (paper section 7).  A plan
records what moved where as precomputed taint-transfer templates built
from the location tuples below; Harrier's dataflow module replays them
over shadow state, so the CPU itself knows nothing about taint,
mirroring the paper's separation between the tracking mechanism and the
analysis (Figure 1).

System calls (``int 0x80``) are not executed here: a plan exits with the
program counter already advanced and the kernel performs the call.  This
is the hook point where Harrier interposes (paper section 7.1: "Harrier
will interrupt the execution of the program and wait until Secpert
analysis is done").
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.isa.memory import FlatMemory
from repro.isa.registers import RegisterFile


class CpuFault(Exception):
    """An execution fault (bad fetch, division by zero, HLT)."""


#: A location in a taint transfer: a register, a memory cell, an immediate
#: (data embedded in the binary), the hardware, or a constant-zero result.
RegLoc = Tuple[str, str]       # ("reg", name)
MemLoc = Tuple[str, int]       # ("mem", addr)
Location = Union[RegLoc, MemLoc, Tuple[str]]

LOC_IMM: Location = ("imm",)
LOC_HARDWARE: Location = ("hardware",)
LOC_ZERO: Location = ("zero",)


#: Fixed CPUID identification values (arbitrary but stable; what matters to
#: the policy is the HARDWARE data source, not the content).
CPUID_VALUES = {"eax": 0x0DE1, "ebx": 0x756E6547, "ecx": 0x6C65746E,
                "edx": 0x49656E69}


class CPU:
    """One execution context (registers + flags + pc) over a memory."""

    __slots__ = ("memory", "regs", "pc", "zf", "sf", "halted")

    def __init__(self, memory: FlatMemory, entry: int = 0) -> None:
        self.memory = memory
        self.regs = RegisterFile()
        self.pc = entry
        self.zf = False
        self.sf = False
        self.halted = False

    # -- fork support -------------------------------------------------------
    def copy(self, memory: FlatMemory) -> "CPU":
        dup = CPU(memory, self.pc)
        dup.regs = self.regs.copy()
        dup.zf = self.zf
        dup.sf = self.sf
        dup.halted = self.halted
        return dup
