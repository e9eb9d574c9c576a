"""The block record: why a translated block stopped and what it did.

Shared by the translator (:mod:`repro.isa.translate`), whose per-op
functions and plans fill records, and the block JIT
(:mod:`repro.isa.blockjit`), whose generated code builds them; it sits
below both so neither imports the other's module to name a record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.isa.cpu import CpuFault

if TYPE_CHECKING:
    from repro.isa.translate import BlockPlan

#: Why a block's execution stopped.
EXIT_CONTINUE = 0   # fall-through or control transfer; keep scheduling
EXIT_SYSCALL = 1    # int 0x80 retired; the kernel must service it
EXIT_HALT = 2       # HLT retired (counted, then treated as a fault)
EXIT_FAULT = 3      # a CpuFault fired; the faulting instruction is NOT
                    # included in ``executed`` (interpreter semantics)
EXIT_BUDGET = 4     # quantum/deadline expired mid-block; resume at next_pc

EXIT_NAMES = {
    EXIT_CONTINUE: "continue",
    EXIT_SYSCALL: "syscall",
    EXIT_HALT: "halt",
    EXIT_FAULT: "fault",
    EXIT_BUDGET: "budget",
}


class BlockRecord:
    """One execution of a (prefix of a) translated block.

    ``executed`` counts retired instructions; a faulting instruction is
    not retired, matching the interpreter (the kernel never advanced the
    clock or fired the hook for it).  ``holes`` is the dynamic memory
    address trace, in retirement order, consumed positionally by the
    taint templates.  ``call_target``/``call_return_addr``/``ret_target``
    carry the CALL/RET bookkeeping the routine short-circuit module
    consumes (CALL/RET always terminate a block).
    """

    __slots__ = (
        "plan",
        "executed",
        "kind",
        "holes",
        "fault",
        "call_target",
        "call_return_addr",
        "ret_target",
        "next_pc",
    )

    def __init__(self, plan: "BlockPlan") -> None:
        self.plan = plan
        self.executed = 0
        self.kind = EXIT_CONTINUE
        self.holes: List[int] = []
        self.fault: Optional[CpuFault] = None
        self.call_target: Optional[int] = None
        self.call_return_addr: Optional[int] = None
        self.ret_target: Optional[int] = None
        self.next_pc = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BlockRecord(start={self.plan.start:#x}, "
            f"executed={self.executed}/{self.plan.length}, "
            f"kind={EXIT_NAMES[self.kind]})"
        )
