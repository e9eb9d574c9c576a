"""Basic-block translation: decode once, execute many times.

The paper's Harrier rides on PIN, and PIN's whole performance story is a
code cache: a basic block is decoded and instrumented *once*, then the
translated block is re-executed cheaply on every later visit (paper
sections 7 and 9).  This module reproduces that idea for the mini-ISA.

``translate_block`` walks the instruction stream from a block leader and
compiles every instruction into a closure with its operand accessors
resolved ahead of time — no ``isinstance`` checks and no if/elif opcode
dispatch remain on the hot path.  Alongside each closure it precomputes a
*static taint-transfer template*: the dst/src location shapes of what
the instruction moves are known at decode time for everything except
dynamic ``Mem`` addresses, which get a hole (:data:`MEM_HOLE`) filled
from the runtime address trace.

Each instruction also decodes into a *shape item* (its opcode and GP
register names) and a tuple of constants (immediates, offsets, targets,
fall-through and fault addresses, fault messages).  A block that has
run :data:`JIT_THRESHOLD` times in full is fused by the block JIT
(:mod:`repro.isa.blockjit`) into one generated function built from the
block's shape alone, with the constants bound as default arguments;
the closures keep serving cold blocks and every partial execution.
Both executors are held to the same records and machine state.  A hot
fused block that heads a short static cycle of blocks becomes the head
of a loop trace (``BlockPlan.trace``), which the kernel runs for whole
iterations at a time instead of block by block.

A :class:`BlockPlan` executes with explicit exit conditions: it returns a
:class:`BlockRecord` whose ``kind`` says *why* the block stopped —
fall-through/branch (:data:`EXIT_CONTINUE`), syscall
(:data:`EXIT_SYSCALL`), HLT (:data:`EXIT_HALT`), CPU fault
(:data:`EXIT_FAULT`) or quantum/deadline expiry (:data:`EXIT_BUDGET`).
The record is the monitor's unit of observation: one record per block
entry — except that a fused block, generated for a hook that inlines
its per-block work (``KernelHooks.block_instrumentation``), does that
work itself on a plain fall-through/branch exit and returns None.  The
reference per-instruction interpreter these plans must match
bit for bit lives with the differential tests (``tests/oracles``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.cpu import (
    CPUID_VALUES,
    CpuFault,
    LOC_HARDWARE,
    LOC_IMM,
    LOC_ZERO,
)
from repro.isa.instructions import (
    CONTROL_TRANSFER_OPCODES,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Reg,
)
from repro.isa.memory import FlatMemory, MemoryFault
from repro.isa.registers import CPUID_REGISTERS

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

#: Placeholder in a taint template for a run-time memory address.  At most
#: one dynamic address exists per instruction in this ISA (LOAD/STORE
#: effective address, or the stack slot of PUSH/POP/CALL), so the hole is
#: filled positionally from the record's address trace.
MEM_HOLE: Tuple[str] = ("mem?",)

#: Longest block the translator will form (defensive bound; real blocks
#: end at control transfers or leaders long before this).
MAX_BLOCK_LEN = 64

#: Full executions after which a block is fused into one generated
#: function (:mod:`repro.isa.blockjit`).  Fusing costs a ``compile()``
#: (about 0.4 ms) the first time a block shape is seen and a function
#: object after that, and pays back only over repeated runs: in one
#: 210-variant sweep round 76% of the 6,420 translated blocks run
#: exactly once (mean 4.35 full runs), while the hot blocks of a long
#: guest run tens of thousands of times.  See docs/performance.md
#: ("Block JIT").
JIT_THRESHOLD = 16

#: A compiled straight-line op: ``op(cpu, regs, cells, holes)``.
BodyOp = Callable[[object, dict, dict, list], None]

#: Taint template: ``None`` (no transfers) or ``(has_hole, transfers)``
#: where each transfer is ``(dst_spec, src_specs)`` built from the same
#: location tuples as :mod:`repro.isa.cpu` (``("reg", name)``, LOC_IMM,
#: ...), with MEM_HOLE for the dynamic address.
TaintTemplate = Optional[Tuple[bool, Tuple[Tuple[tuple, Tuple[tuple, ...]], ...]]]

#: Summary-expression tokens (see :class:`TaintSummary`).  ``("reg", r)``
#: is the tag set register ``r`` holds at block *entry*; ``("mem", k)``
#: the tags of the cell the k-th dynamic address (hole) points at;
#: TOK_IMM the containing image's BINARY tag; TOK_HW the HARDWARE tag.
TOK_IMM: Tuple[str] = ("imm",)
TOK_HW: Tuple[str] = ("hw",)


class TaintSummary:
    """Block-level taint liveness: what a block reads, loads, and writes.

    Computed once at translation time by abstract interpretation of the
    block's taint templates.  Every destination the block writes gets a
    *support expression* — the set of entry-state tokens whose union is
    the destination's final tag set, with intra-block register chains
    already folded away.  Because tag-set union is associative,
    commutative, and idempotent, evaluating the supports against the
    shadow state at block entry reproduces the per-transfer replay
    exactly, in O(#outputs) instead of O(#transfers) — the monitor's
    fast path (see ``InstructionDataFlow.install_applier``).

    Validity: the expressions read every ``("mem", k)`` at the cell's
    *entry* tags.  That is exact because :func:`translate_block` never
    places a load after a store in one block, so no load can see a tag
    the same block stored.  A prefix of a block (the first n templates)
    summarizes the same way, with the same hole indices.
    """

    __slots__ = (
        "live_in",
        "read_holes",
        "reg_writes",
        "mem_writes",
        "touch_holes",
        "is_noop",
        "zero_taint_safe",
    )

    def __init__(
        self,
        live_in: Tuple[str, ...],
        read_holes: Tuple[int, ...],
        reg_writes: Tuple[Tuple[str, Tuple[tuple, ...]], ...],
        mem_writes: Tuple[Tuple[int, Tuple[tuple, ...]], ...],
    ) -> None:
        #: Registers whose entry tags feed at least one output.
        self.live_in = live_in
        #: Hole indices the block *loads* through (mem? sources).
        self.read_holes = read_holes
        #: reg name -> support tokens, final value per written register.
        self.reg_writes = reg_writes
        #: (hole index, support tokens) per memory store, program order.
        self.mem_writes = mem_writes
        #: Every hole index the expressions touch (loads + stores), for
        #: the page-granularity "can this block see/leave taint" gate.
        self.touch_holes = tuple(
            sorted(set(read_holes) | {idx for idx, _ in mem_writes})
        )
        #: True when the block moves no tags at all (cmp/jmp-only
        #: blocks): nothing to apply, ever.
        self.is_noop = not reg_writes and not mem_writes
        #: True when no output can carry taint unless an *input* does:
        #: no immediate or hardware source reaches any destination, so a
        #: clean entry state stays clean and the block can be skipped
        #: outright (modulo clearing stale write-set tags).
        self.zero_taint_safe = not any(
            TOK_IMM in support or TOK_HW in support
            for _, support in reg_writes
        ) and not any(
            TOK_IMM in support or TOK_HW in support
            for _, support in mem_writes
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaintSummary(live_in={self.live_in}, "
            f"loads={len(self.read_holes)}, "
            f"regs={[r for r, _ in self.reg_writes]}, "
            f"stores={len(self.mem_writes)})"
        )


def summarize_taint(
    taint: Tuple[TaintTemplate, ...]
) -> TaintSummary:
    """Fold a block's (or a block prefix's) taint templates into a
    :class:`TaintSummary`."""
    written: Dict[str, frozenset] = {}
    reads: List[str] = []
    seen_reads = set()
    read_holes: List[int] = []
    mem_writes: List[Tuple[int, frozenset]] = []
    cursor = 0
    for tmpl in taint:
        if tmpl is None:
            continue
        has_hole, transfers = tmpl
        idx = cursor
        if has_hole:
            cursor += 1
        for dst_spec, src_specs in transfers:
            tokens = set()
            for src in src_specs:
                kind = src[0]
                if kind == "reg":
                    reg = src[1]
                    chained = written.get(reg)
                    if chained is None:
                        if reg not in seen_reads:
                            seen_reads.add(reg)
                            reads.append(reg)
                        tokens.add(("reg", reg))
                    else:
                        tokens |= chained
                elif kind == "mem?":
                    read_holes.append(idx)
                    tokens.add(("mem", idx))
                elif kind == "imm":
                    tokens.add(TOK_IMM)
                elif kind == "hardware":
                    tokens.add(TOK_HW)
                # 'zero' contributes nothing
            if dst_spec[0] == "reg":
                written[dst_spec[1]] = frozenset(tokens)
            else:
                mem_writes.append((idx, frozenset(tokens)))
    # Deterministic token order keeps evaluation reproducible.
    def _ordered(tokens: frozenset) -> Tuple[tuple, ...]:
        return tuple(sorted(tokens, key=lambda t: (t[0], str(t[1:]))))

    return TaintSummary(
        live_in=tuple(reads),
        read_holes=tuple(read_holes),
        reg_writes=tuple(
            (reg, _ordered(tokens)) for reg, tokens in written.items()
        ),
        mem_writes=tuple(
            (idx, _ordered(tokens)) for idx, tokens in mem_writes
        ),
    )


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


class BlockPlan:
    """A translated basic block: closures, taint templates, JIT shape."""

    __slots__ = (
        "start",
        "pcs",
        "instructions",
        "body_ops",
        "term_op",
        "taint",
        "shape",
        "consts",
        "runs",
        "fused",
        "fused_for",
        "trace",
        "trace_for",
        "taint_summary",
        "taint_apply",
        "taint_steady",
        "prefix_apply",
        "length",
    )

    def __init__(
        self,
        start: int,
        pcs: Tuple[int, ...],
        instructions: Tuple[Instruction, ...],
        body_ops: Tuple[BodyOp, ...],
        term_op,
        taint: Tuple[TaintTemplate, ...],
        shape: Tuple[tuple, ...],
        consts: tuple,
    ) -> None:
        self.start = start
        self.pcs = pcs
        self.instructions = instructions
        self.body_ops = body_ops
        self.term_op = term_op
        self.taint = taint
        #: The block JIT's code-cache key: per instruction, the opcode
        #: and GP register names only (plus the exit), so blocks that
        #: differ only in immediates, offsets and addresses share it.
        self.shape = shape
        #: Every other value the fused function needs, in emitter order;
        #: bound as default arguments, never written into source text.
        self.consts = consts
        #: Full executions so far: on the closure path, then (counted
        #: by the kernel) the fused function's plain exits until the
        #: block is tried as a loop-trace head.
        self.runs = 0
        #: The generated function ``fused(plan, cpu, m)`` for full
        #: executions, once ``runs`` reaches JIT_THRESHOLD, and the
        #: monitor instrumentation it was generated for (see
        #: :mod:`repro.isa.blockjit`).
        self.fused = None
        self.fused_for = None
        #: The loop trace this block heads (a ``blockjit.Trace``) or
        #: None, and the instrumentation it was last tried or built for
        #: (``blockjit.JOINED`` once the block is a member of another
        #: block's trace).
        self.trace = None
        self.trace_for = None
        #: Block-level liveness/fold summary the taint applier compiles.
        self.taint_summary = summarize_taint(taint)
        #: The compiled summary applier for full executions, installed
        #: lazily (``InstructionDataFlow.install_applier``) the first time
        #: this block's taint effects are applied — a closure shaped to
        #: this block's summary, with its own entry-values memo, just as
        #: ``body_ops`` are closures shaped to the instructions.
        self.taint_apply = None
        #: The steady state a memory-touching ``taint_apply`` publishes
        #: (``repro.harrier.dataflow.SteadyState``), which fused blocks
        #: and loop traces check inline before they call the applier;
        #: None until it is installed, and for any other applier.
        self.taint_steady = None
        #: Executed count -> compiled applier of that prefix's summary,
        #: for partial executions (budget expiry or a fault mid-block);
        #: None until the first one (most plans never run partially).
        self.prefix_apply: Optional[Dict[int, Callable]] = None
        self.length = len(pcs)

    # -- execution --------------------------------------------------------
    def execute(self, cpu, limit: int, instrumentation=None,
                monitor=None) -> Optional[BlockRecord]:
        """Run up to ``limit`` instructions of this block on ``cpu``.

        The quantum/deadline budget is enforced *here* (never overshot):
        a partial execution stops with :data:`EXIT_BUDGET` and the cpu's
        pc parked on the first unexecuted instruction, so virtual-time
        interleaving is identical to the per-instruction interpreter.

        A full execution runs the block's fused function once the block
        has run :data:`JIT_THRESHOLD` times in full; before that, and
        for every partial execution, the per-instruction closures run.
        The fused function is generated for the hook's
        ``instrumentation`` (regenerated when it changes) and gets its
        per-process ``monitor`` context: on a plain exit it does the
        monitor's block work itself and returns None instead of a
        record.  The closures always return the record.
        """
        if limit >= self.length:
            fused = self.fused
            if fused is not None and self.fused_for is instrumentation:
                return fused(self, cpu, monitor)
            if fused is None:
                self.runs += 1
            if fused is not None or self.runs >= JIT_THRESHOLD:
                # Imported here: blockjit builds on this module.
                from repro.isa.blockjit import fuse

                return fuse(self, instrumentation)(self, cpu, monitor)
        rec = BlockRecord(self)
        holes = rec.holes
        regs = cpu.regs._values
        cells = cpu.memory.cells
        n = 0
        if limit >= self.length:
            try:
                for op in self.body_ops:
                    op(cpu, regs, cells, holes)
                    n += 1
                self.term_op(cpu, regs, cells, holes, rec)
            except CpuFault as fault:
                rec.executed = n
                rec.kind = EXIT_FAULT
                rec.fault = fault
                # Interpreter parity: the faulting instruction's pc was
                # advanced past it before the raise.
                cpu.pc = self.pcs[n] + 1
                rec.next_pc = cpu.pc
                return rec
            rec.executed = n + 1
            rec.next_pc = cpu.pc
            return rec
        # Partial: the budget expires inside the block.
        try:
            for op in self.body_ops[:limit]:
                op(cpu, regs, cells, holes)
                n += 1
        except CpuFault as fault:
            rec.executed = n
            rec.kind = EXIT_FAULT
            rec.fault = fault
            cpu.pc = self.pcs[n] + 1
            rec.next_pc = cpu.pc
            return rec
        rec.executed = n
        rec.kind = EXIT_BUDGET
        cpu.pc = self.pcs[n]
        rec.next_pc = cpu.pc
        return rec

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BlockPlan(start={self.start:#x}, len={self.length})"


# ---------------------------------------------------------------------------
# Per-opcode compilation.  Each compiler returns (closure, taint_template,
# shape_item, constants).  Closures receive (cpu, regs, cells, holes): regs
# is the raw register dict, cells the raw data-cell dict — both prebound
# per execution — and holes the dynamic address trace the taint templates
# consume.  The shape item names the opcode and the GP registers it uses
# (:data:`SHAPE_IMM` for an immediate operand); ``constants`` holds every
# other value the instruction needs, in the order the block JIT's emitter
# (:mod:`repro.isa.blockjit`) consumes them.
# ---------------------------------------------------------------------------

#: Shape-item marker for an immediate operand (its value is a constant).
SHAPE_IMM = "#"


def _trunc_div(lhs: int, rhs: int) -> int:
    """Integer quotient rounded toward zero, like x86 ``idiv``.

    Exact at any operand size: floor division, then one step back
    toward zero when the quotient is negative and inexact.  (A float
    quotient would overflow past 2**1024 and lose digits past 2**53.)
    The block JIT emits the same three statements inline.
    """
    q = lhs // rhs
    if q < 0 and q * rhs != lhs:
        q += 1
    return q


def _fault_body(message: str, halt: bool, pc: int):
    """A compiled op that always faults (decode-time-known errors)."""
    def op(cpu, regs, cells, holes, _m=message, _h=halt):
        if _h:
            cpu.halted = True
        raise CpuFault(_m)
    item = ("fault", "halt") if halt else ("fault",)
    return op, None, item, (message, pc + 1)


def _fault_term(message: str, halt: bool, pc: int):
    def term(cpu, regs, cells, holes, rec, _m=message, _h=halt):
        if _h:
            cpu.halted = True
        raise CpuFault(_m)
    item = ("fault", "halt") if halt else ("fault",)
    return term, None, (item,), (message, pc + 1)


def _bad_operand(operand, pc: int):
    return _fault_body(f"bad source operand {operand}", False, pc)


def _nop_op(cpu, regs, cells, holes) -> None:
    pass


def _c_mov(instr: Instruction, pc: int):
    d = instr.a.name
    b = instr.b
    dloc = ("reg", d)
    if type(b) is Reg:
        s = b.name
        def op(cpu, regs, cells, holes, _d=d, _s=s):
            regs[_d] = regs[_s]
        return op, (False, ((dloc, (("reg", s),)),)), ("mov", d, s), ()
    if type(b) is Imm:
        v = b.value
        def op(cpu, regs, cells, holes, _d=d, _v=v):
            regs[_d] = _v
        return op, (False, ((dloc, (LOC_IMM,)),)), ("mov", d, SHAPE_IMM), (v,)
    return _bad_operand(b, pc)


def _c_load(instr: Instruction, pc: int):
    d = instr.a.name
    m: Mem = instr.b
    base, off = m.base, m.offset
    def op(cpu, regs, cells, holes, _d=d, _b=base, _o=off):
        addr = regs[_b] + _o
        holes.append(addr)
        regs[_d] = cells.get(addr, 0)
    tmpl = (True, ((("reg", d), (MEM_HOLE,)),))
    return op, tmpl, ("load", d, base), (off,)


def _c_store(instr: Instruction, pc: int):
    m: Mem = instr.a
    base, off = m.base, m.offset
    b = instr.b
    if type(b) is Reg:
        s = b.name
        def op(cpu, regs, cells, holes, _b=base, _o=off, _s=s):
            addr = regs[_b] + _o
            holes.append(addr)
            cells[addr] = regs[_s]
        srcs: Tuple[tuple, ...] = (("reg", s),)
        item, consts = ("store", base, s), (off,)
    elif type(b) is Imm:
        v = b.value
        def op(cpu, regs, cells, holes, _b=base, _o=off, _v=v):
            addr = regs[_b] + _o
            holes.append(addr)
            cells[addr] = _v
        srcs = (LOC_IMM,)
        item, consts = ("store", base, SHAPE_IMM), (off, v)
    else:
        return _bad_operand(b, pc)
    return op, (True, ((MEM_HOLE, srcs),)), item, consts


#: Plain binary ALU value functions.  Shift counts are masked to 0-63
#: like x86 (keeps guest-controlled counts from allocating huge ints);
#: the reference interpreter in ``tests/oracles`` applies the same mask.
_ALU_FUNCS = {
    Opcode.ADD: lambda l, r: l + r,
    Opcode.SUB: lambda l, r: l - r,
    Opcode.MUL: lambda l, r: l * r,
    Opcode.XOR: lambda l, r: l ^ r,
    Opcode.AND: lambda l, r: l & r,
    Opcode.OR: lambda l, r: l | r,
    Opcode.SHL: lambda l, r: l << (r & 63),
    Opcode.SHR: lambda l, r: l >> (r & 63),
}


def _c_alu(instr: Instruction, pc: int):
    opcode = instr.opcode
    d = instr.a.name
    b = instr.b
    dloc = ("reg", d)
    is_reg = type(b) is Reg
    if not is_reg and type(b) is not Imm:
        return _bad_operand(b, pc)
    if opcode in (Opcode.XOR, Opcode.SUB) and is_reg and b.name == d:
        # xor r,r / sub r,r: constant zero carries no data.
        srcs: Tuple[tuple, ...] = (LOC_ZERO,)
    elif is_reg:
        srcs = (dloc, ("reg", b.name))
    else:
        srcs = (dloc, LOC_IMM)
    tmpl = (False, ((dloc, srcs),))
    name = opcode.value

    if opcode in (Opcode.DIV, Opcode.MOD):
        msg = f"division by zero at {pc:#x}"
        is_mod = opcode is Opcode.MOD
        if is_reg:
            s = b.name
            def op(cpu, regs, cells, holes, _d=d, _s=s, _mod=is_mod,
                   _m=msg):
                lhs = regs[_d]
                rhs = regs[_s]
                if rhs == 0:
                    cpu.halted = True
                    raise CpuFault(_m)
                q = _trunc_div(lhs, rhs)
                value = lhs - q * rhs if _mod else q
                regs[_d] = value
                cpu.zf = value == 0
                cpu.sf = value < 0
            return op, tmpl, (name, d, s), (msg, pc + 1)
        v = b.value
        if v == 0:
            op, _, item, consts = _fault_body(msg, True, pc)
            return op, tmpl, item, consts
        def op(cpu, regs, cells, holes, _d=d, _v=v, _mod=is_mod):
            lhs = regs[_d]
            q = _trunc_div(lhs, _v)
            value = lhs - q * _v if _mod else q
            regs[_d] = value
            cpu.zf = value == 0
            cpu.sf = value < 0
        return op, tmpl, (name, d, SHAPE_IMM), (v,)

    fn = _ALU_FUNCS[opcode]
    if is_reg:
        s = b.name
        def op(cpu, regs, cells, holes, _d=d, _s=s, _fn=fn):
            value = _fn(regs[_d], regs[_s])
            regs[_d] = value
            cpu.zf = value == 0
            cpu.sf = value < 0
        return op, tmpl, (name, d, s), ()
    v = b.value
    def op(cpu, regs, cells, holes, _d=d, _v=v, _fn=fn):
        value = _fn(regs[_d], _v)
        regs[_d] = value
        cpu.zf = value == 0
        cpu.sf = value < 0
    return op, tmpl, (name, d, SHAPE_IMM), (v,)


def _c_cmp(instr: Instruction, pc: int):
    a = instr.a.name
    b = instr.b
    if type(b) is Reg:
        s = b.name
        def op(cpu, regs, cells, holes, _a=a, _s=s):
            value = regs[_a] - regs[_s]
            cpu.zf = value == 0
            cpu.sf = value < 0
        return op, None, ("cmp", a, s), ()
    if type(b) is Imm:
        v = b.value
        def op(cpu, regs, cells, holes, _a=a, _v=v):
            value = regs[_a] - _v
            cpu.zf = value == 0
            cpu.sf = value < 0
        return op, None, ("cmp", a, SHAPE_IMM), (v,)
    return _bad_operand(b, pc)


def _c_push(instr: Instruction, pc: int):
    a = instr.a
    if type(a) is Reg:
        s = a.name
        def op(cpu, regs, cells, holes, _s=s):
            sp = regs["esp"] - 1
            regs["esp"] = sp
            holes.append(sp)
            cells[sp] = regs[_s]
        srcs: Tuple[tuple, ...] = (("reg", s),)
        item, consts = ("push", s), ()
    elif type(a) is Imm:
        v = a.value
        def op(cpu, regs, cells, holes, _v=v):
            sp = regs["esp"] - 1
            regs["esp"] = sp
            holes.append(sp)
            cells[sp] = _v
        srcs = (LOC_IMM,)
        item, consts = ("push", SHAPE_IMM), (v,)
    else:
        return _bad_operand(a, pc)
    return op, (True, ((MEM_HOLE, srcs),)), item, consts


def _c_pop(instr: Instruction, pc: int):
    d = instr.a.name
    def op(cpu, regs, cells, holes, _d=d):
        sp = regs["esp"]
        holes.append(sp)
        regs[_d] = cells.get(sp, 0)
        regs["esp"] = sp + 1
    return op, (True, ((("reg", d), (MEM_HOLE,)),)), ("pop", d), ()


def _c_cpuid(instr: Instruction, pc: int):
    values = tuple((r, CPUID_VALUES[r]) for r in CPUID_REGISTERS)
    def op(cpu, regs, cells, holes, _vals=values):
        for reg, val in _vals:
            regs[reg] = val
    tmpl = (
        False,
        tuple((("reg", r), (LOC_HARDWARE,)) for r in CPUID_REGISTERS),
    )
    return op, tmpl, ("cpuid",), tuple(v for _, v in values)


def _c_nop(instr: Instruction, pc: int):
    return _nop_op, None, ("nop",), ()


_STRAIGHT_COMPILERS: Dict[Opcode, Callable] = {
    Opcode.MOV: _c_mov,
    Opcode.LOAD: _c_load,
    Opcode.STORE: _c_store,
    Opcode.ADD: _c_alu,
    Opcode.SUB: _c_alu,
    Opcode.MUL: _c_alu,
    Opcode.DIV: _c_alu,
    Opcode.MOD: _c_alu,
    Opcode.XOR: _c_alu,
    Opcode.AND: _c_alu,
    Opcode.OR: _c_alu,
    Opcode.SHL: _c_alu,
    Opcode.SHR: _c_alu,
    Opcode.CMP: _c_cmp,
    Opcode.PUSH: _c_push,
    Opcode.POP: _c_pop,
    Opcode.CPUID: _c_cpuid,
    Opcode.NOP: _c_nop,
}


def _compile_straight(instr: Instruction, pc: int):
    compiler = _STRAIGHT_COMPILERS.get(instr.opcode)
    if compiler is None:  # pragma: no cover - exhaustive opcode table
        return _fault_body(f"unimplemented opcode {instr.opcode}",
                           False, pc)
    return compiler(instr, pc)


# -- terminators ------------------------------------------------------------

_JCC_CONDS = {
    Opcode.JZ: lambda cpu: cpu.zf,
    Opcode.JNZ: lambda cpu: not cpu.zf,
    Opcode.JL: lambda cpu: cpu.sf,
    Opcode.JLE: lambda cpu: cpu.sf or cpu.zf,
    Opcode.JG: lambda cpu: not (cpu.sf or cpu.zf),
    Opcode.JGE: lambda cpu: not cpu.sf,
}


def _compile_terminator(instr: Instruction, pc: int):
    """Compile the block's last instruction.

    Returns (term_op, taint, shape_items, constants): one shape item for
    a control transfer, INT or HLT, or the straight op's item followed
    by ``("fall",)`` for a cut block.
    """
    opcode = instr.opcode
    name = opcode.value

    if opcode is Opcode.JMP:
        a = instr.a
        if type(a) is not Imm:
            return _fault_term(f"expected immediate, got {a}", False, pc)
        target = a.value
        def term(cpu, regs, cells, holes, rec, _t=target):
            cpu.pc = _t
        return term, None, ((name,),), (target,)

    cond = _JCC_CONDS.get(opcode)
    if cond is not None:
        a = instr.a
        if type(a) is not Imm:
            return _fault_term(f"expected immediate, got {a}", False, pc)
        target = a.value
        fall = pc + 1
        def term(cpu, regs, cells, holes, rec, _t=target, _f=fall,
                 _c=cond):
            cpu.pc = _t if _c(cpu) else _f
        return term, None, ((name,),), (target, fall)

    if opcode is Opcode.CALL:
        a = instr.a
        ret = pc + 1
        if type(a) is Reg:
            s = a.name
            def term(cpu, regs, cells, holes, rec, _s=s, _r=ret):
                target = regs[_s]
                sp = regs["esp"] - 1
                regs["esp"] = sp
                holes.append(sp)
                cells[sp] = _r
                cpu.pc = target
                rec.call_target = target
                rec.call_return_addr = _r
            item, consts = (name, s), (ret,)
        elif type(a) is Imm:
            target = a.value
            def term(cpu, regs, cells, holes, rec, _t=target, _r=ret):
                sp = regs["esp"] - 1
                regs["esp"] = sp
                holes.append(sp)
                cells[sp] = _r
                cpu.pc = _t
                rec.call_target = _t
                rec.call_return_addr = _r
            item, consts = (name, SHAPE_IMM), (target, ret)
        else:
            return _fault_term(f"expected immediate, got {a}", False, pc)
        return term, (True, ((MEM_HOLE, (LOC_ZERO,)),)), (item,), consts

    if opcode is Opcode.RET:
        def term(cpu, regs, cells, holes, rec):
            sp = regs["esp"]
            target = cells.get(sp, 0)
            regs["esp"] = sp + 1
            cpu.pc = target
            rec.ret_target = target
        return term, None, ((name,),), ()

    if opcode is Opcode.INT:
        a = instr.a
        if type(a) is not Imm:
            return _fault_term(f"expected immediate, got {a}", False, pc)
        if a.value != 0x80:
            return _fault_term(
                f"unsupported interrupt {a.value:#x} at {pc:#x}", True, pc
            )
        nxt = pc + 1
        def term(cpu, regs, cells, holes, rec, _n=nxt):
            cpu.pc = _n
            rec.kind = EXIT_SYSCALL
        return term, None, ((name,),), (nxt,)

    if opcode is Opcode.HLT:
        nxt = pc + 1
        def term(cpu, regs, cells, holes, rec, _n=nxt):
            cpu.halted = True
            cpu.pc = _n
            rec.kind = EXIT_HALT
        return term, None, ((name,),), (nxt,)

    # A cut block (leader / unmapped successor / max length): the last
    # instruction is an ordinary straight-line op plus a fall-through.
    op, tmpl, item, consts = _compile_straight(instr, pc)
    nxt = pc + 1
    def term(cpu, regs, cells, holes, rec, _op=op, _n=nxt):
        _op(cpu, regs, cells, holes)
        cpu.pc = _n
    return term, tmpl, (item, ("fall",)), consts + (nxt,)


#: Straight-line opcodes that load / store through a run-time address
#: (a taint-template hole).  CALL also stores, but it ends its block.
_HOLE_LOADS = frozenset({Opcode.LOAD, Opcode.POP})
_HOLE_STORES = frozenset({Opcode.STORE, Opcode.PUSH})


def translate_block(
    memory: FlatMemory,
    start: int,
    stop_leaders=frozenset(),
    max_len: int = MAX_BLOCK_LEN,
) -> BlockPlan:
    """Decode and compile the basic block whose leader is ``start``.

    Cutting rules: the block ends at the first control transfer or INT,
    just before any address in ``stop_leaders`` (so a later block entry
    at a leader is always a cache key), before an unmapped address, at
    ``max_len`` instructions, or just before a load (LOAD/POP) that
    follows a store (STORE/PUSH) of the same block — so a block's
    :class:`TaintSummary` never has to model a load reading a cell the
    block itself stored.  The cut start is not a leader, so BB frequency
    never sees it.  Raises :class:`MemoryFault` when ``start`` itself is
    unmapped, with the interpreter's fetch message.
    """
    code = memory.code
    instr = code.get(start)
    if instr is None:
        raise MemoryFault(f"execute of unmapped address {start:#x}")
    pcs: List[int] = []
    instrs: List[Instruction] = []
    pc = start
    stored = False
    while True:
        pcs.append(pc)
        instrs.append(instr)
        opcode = instr.opcode
        if opcode in CONTROL_TRANSFER_OPCODES or opcode is Opcode.INT:
            break
        if len(pcs) >= max_len:
            break
        stored = stored or opcode in _HOLE_STORES
        nxt = pc + 1
        if nxt in stop_leaders:
            break
        instr = code.get(nxt)
        if instr is None or (stored and instr.opcode in _HOLE_LOADS):
            break
        pc = nxt

    body_ops: List[BodyOp] = []
    taint: List[TaintTemplate] = []
    shape: List[tuple] = []
    consts: list = []
    for i in range(len(pcs) - 1):
        op, tmpl, item, values = _compile_straight(instrs[i], pcs[i])
        body_ops.append(op)
        taint.append(tmpl)
        shape.append(item)
        consts.extend(values)
    term_op, tmpl, items, values = _compile_terminator(instrs[-1], pcs[-1])
    taint.append(tmpl)
    shape.extend(items)
    consts.extend(values)
    return BlockPlan(
        start=start,
        pcs=tuple(pcs),
        instructions=tuple(instrs),
        body_ops=tuple(body_ops),
        term_op=term_op,
        taint=tuple(taint),
        shape=tuple(shape),
        consts=tuple(consts),
    )
