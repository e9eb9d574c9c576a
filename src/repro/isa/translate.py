"""Basic-block translation: decode once, execute many times.

The paper's Harrier rides on PIN, and PIN's whole performance story is a
code cache: a basic block is decoded and instrumented *once*, then the
translated block is re-executed cheaply on every later visit (paper
sections 7 and 9).  This module reproduces that idea for the mini-ISA.

``translate_block`` walks the instruction stream from a block leader and
decodes every instruction into a *shape item* (its opcode and GP
register names), a tuple of constants (immediates, offsets, targets,
fall-through and fault addresses, fault messages) and a *static
taint-transfer template*: the dst/src location shapes of what the
instruction moves are known at decode time for everything except
dynamic ``Mem`` addresses, which get a hole (:data:`MEM_HOLE`) filled
from the runtime address trace.

Every opcode's semantics is written once, in the block JIT's emitter
(:mod:`repro.isa.blockjit`).  Each instruction runs as the per-op
function the emitter generates for its shape item, compiled once per
process and bound to the instruction's constants as default arguments
(:func:`~repro.isa.blockjit.op_function`), so no ``isinstance`` checks
and no if/elif opcode dispatch remain on the hot path.  A block that
has run :data:`JIT_THRESHOLD` times in full is fused into one generated
function built from the block's shape alone, with the constants bound
the same way; the per-op functions keep serving cold blocks and every
partial execution.  A hot fused block that heads a short static cycle
of blocks becomes the head of a loop trace (``BlockPlan.trace``), which
the kernel runs for whole iterations at a time instead of block by
block.

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

from repro.isa.blockjit import SHAPE_IMM, fuse, op_function
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
    Opcode,
    Reg,
)
from repro.isa.memory import FlatMemory, MemoryFault
from repro.isa.record import (
    EXIT_BUDGET,
    EXIT_CONTINUE,  # noqa: F401 - the exit codes are importable here too
    EXIT_FAULT,
    EXIT_HALT,  # noqa: F401
    EXIT_SYSCALL,  # noqa: F401
    BlockRecord,
)
from repro.isa.registers import CPUID_REGISTERS

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
#: in-process 210-variant sweep round (seed 7) 83% of the 2,647
#: translated blocks run exactly once (mean 2.7 full runs), while the
#: hot blocks of a long guest run tens of thousands of times.  Until
#: then a block runs its per-op functions, whose code is compiled per
#: op shape, not per block (99 op shapes against 321 block shapes in
#: that round).  See docs/performance.md ("Block JIT").
JIT_THRESHOLD = 16

#: A straight-line op's function: ``op(cpu, regs, cells, holes)``.
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


class BlockPlan:
    """A translated basic block: per-op functions, taint templates, JIT
    shape."""

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
        #: The per-op functions of the straight-line ops and of the
        #: terminator (``term_op`` also takes the record), each the
        #: emitter's code for its op shape with its constants bound.
        self.body_ops = body_ops
        self.term_op = term_op
        self.taint = taint
        #: The block JIT's code-cache key: per instruction, the opcode
        #: and GP register names only (plus the exit), so blocks that
        #: differ only in immediates, offsets and addresses share it.
        self.shape = shape
        #: Every other value the generated code needs, in emitter order;
        #: bound as default arguments, never written into source text.
        self.consts = consts
        #: Full executions so far: on the per-op path, then (counted
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
        #: this block's summary, with its own entry-values memo.
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
        for every partial execution, the per-op functions run.
        The fused function is generated for the hook's
        ``instrumentation`` (regenerated when it changes) and gets its
        per-process ``monitor`` context: on a plain exit it does the
        monitor's block work itself and returns None instead of a
        record.  The per-op path always returns the record.
        """
        if limit >= self.length:
            fused = self.fused
            if fused is not None and self.fused_for is instrumentation:
                return fused(self, cpu, monitor)
            if fused is None:
                self.runs += 1
            if fused is not None or self.runs >= JIT_THRESHOLD:
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
# Decoding.  Each instruction decodes into (taint template, shape item,
# constants).  The shape item names the opcode and the GP registers it
# uses (:data:`SHAPE_IMM` for an immediate operand); ``constants`` holds
# every other value the instruction needs, in the order the block JIT's
# emitter consumes them.  The emitter writes the instruction's per-op
# function from its shape item alone (:func:`blockjit.op_function`) and
# the constants are bound as its default arguments, as in a fused block.
# ---------------------------------------------------------------------------


def _fault(message: str, halt: bool, pc: int):
    """An op that always faults (decode-time-known errors)."""
    return None, ("fault", "halt") if halt else ("fault",), (message, pc + 1)


def _source(operand):
    """``(shape operand, constants, taint location)`` of a Reg or Imm
    source operand, None for any other."""
    if type(operand) is Reg:
        return operand.name, (), ("reg", operand.name)
    if type(operand) is Imm:
        return SHAPE_IMM, (operand.value,), LOC_IMM
    return None


def _decode_straight(instr: Instruction, pc: int):
    """Decode a straight-line instruction into (taint, shape item,
    constants)."""
    opcode = instr.opcode
    name = opcode._value_
    if opcode is Opcode.LOAD:
        d, m = instr.a.name, instr.b
        return ((True, ((("reg", d), (MEM_HOLE,)),)), (name, d, m.base),
                (m.offset,))
    if opcode is Opcode.POP:
        d = instr.a.name
        return (True, ((("reg", d), (MEM_HOLE,)),)), (name, d), ()
    if opcode is Opcode.CPUID:
        tmpl = (
            False,
            tuple((("reg", r), (LOC_HARDWARE,)) for r in CPUID_REGISTERS),
        )
        return tmpl, (name,), tuple(CPUID_VALUES[r] for r in CPUID_REGISTERS)
    if opcode is Opcode.NOP:
        return None, (name,), ()
    operand = instr.a if opcode is Opcode.PUSH else instr.b
    source = _source(operand)
    if source is None:
        return _fault(f"bad source operand {operand}", False, pc)
    s, values, sloc = source
    if opcode is Opcode.PUSH:
        return (True, ((MEM_HOLE, (sloc,)),)), (name, s), values
    if opcode is Opcode.STORE:
        m = instr.a
        return ((True, ((MEM_HOLE, (sloc,)),)), (name, m.base, s),
                (m.offset,) + values)
    d = instr.a.name
    dloc = ("reg", d)
    if opcode is Opcode.MOV:
        return (False, ((dloc, (sloc,)),)), (name, d, s), values
    if opcode is Opcode.CMP:
        return None, (name, d, s), values
    # Every other straight-line opcode is one of ALU_OPCODES.
    if opcode in (Opcode.XOR, Opcode.SUB) and s == d:
        # xor r,r / sub r,r: constant zero carries no data.
        srcs: Tuple[tuple, ...] = (LOC_ZERO,)
    else:
        srcs = (dloc, sloc)
    tmpl = (False, ((dloc, srcs),))
    if opcode in (Opcode.DIV, Opcode.MOD):
        message = f"division by zero at {pc:#x}"
        if s != SHAPE_IMM:
            return tmpl, (name, d, s), (message, pc + 1)
        if values == (0,):
            _, item, values = _fault(message, True, pc)
            return tmpl, item, values
    return tmpl, (name, d, s), values


#: A CALL's taint: the pushed return address is a constant.
_CALL_TAINT = (True, ((MEM_HOLE, (LOC_ZERO,)),))


def _decode_terminator(instr: Instruction, pc: int):
    """Decode the block's last instruction into (taint, shape items,
    constants): one shape item for a control transfer, INT or HLT, or
    the straight op's item followed by ``("fall",)`` for a cut block.
    The items together are the terminator's op shape."""
    opcode = instr.opcode
    name = opcode._value_
    a = instr.a
    if opcode is Opcode.RET:
        return None, ((name,),), ()
    if opcode is Opcode.HLT:
        return None, ((name,),), (pc + 1,)
    if opcode is Opcode.CALL and type(a) is Reg:
        return _CALL_TAINT, ((name, a.name),), (pc + 1,)
    if opcode in CONTROL_TRANSFER_OPCODES or opcode is Opcode.INT:
        if type(a) is not Imm:
            tmpl, item, values = _fault(f"expected immediate, got {a}",
                                        False, pc)
            return tmpl, (item,), values
        if opcode is Opcode.CALL:
            return _CALL_TAINT, ((name, SHAPE_IMM),), (a.value, pc + 1)
        if opcode is Opcode.JMP:
            return None, ((name,),), (a.value,)
        if opcode is not Opcode.INT:  # a conditional branch
            return None, ((name,),), (a.value, pc + 1)
        if a.value != 0x80:
            tmpl, item, values = _fault(
                f"unsupported interrupt {a.value:#x} at {pc:#x}", True, pc)
            return tmpl, (item,), values
        return None, ((name,),), (pc + 1,)
    # A cut block (leader / unmapped successor / max length): the last
    # instruction is an ordinary straight-line op plus a fall-through.
    tmpl, item, values = _decode_straight(instr, pc)
    return tmpl, (item, ("fall",)), values + (pc + 1,)


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
        tmpl, item, values = _decode_straight(instrs[i], pcs[i])
        body_ops.append(op_function(item, values))
        taint.append(tmpl)
        shape.append(item)
        consts.extend(values)
    tmpl, items, values = _decode_terminator(instrs[-1], pcs[-1])
    taint.append(tmpl)
    shape.extend(items)
    consts.extend(values)
    return BlockPlan(
        start=start,
        pcs=tuple(pcs),
        instructions=tuple(instrs),
        body_ops=tuple(body_ops),
        term_op=op_function(items, values),
        taint=tuple(taint),
        shape=tuple(shape),
        consts=tuple(consts),
    )
