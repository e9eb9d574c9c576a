"""Block JIT: the one place every opcode's semantics is written, as
code generated per instruction, per hot translated block and per hot
loop.

:class:`_Emitter` writes Python source from *shapes*: per instruction,
the opcode and its GP register names (:attr:`BlockPlan.shape` items).
For one instruction it writes a per-op function (:func:`op_source`),
compiled once per op shape into the op table beside :data:`CODE_CACHE`
and bound to each instruction's constants by the translator
(:func:`op_function`); that is how every instruction runs in a cold
block and in any partial execution, one Python call per instruction
with a dict access per register operand and a flag store per ALU op.
PIN goes one step further and compiles the whole block into one stretch
of native code (paper sections 7 and 9); the block functions are that
step for the mini-ISA.  Once a block has run
:data:`~repro.isa.translate.JIT_THRESHOLD` times in full, :func:`fuse`
gives it a single generated function in which

* the registers the block touches are loaded into locals at entry and
  written back once, at the exit or at a fault;
* ZF/SF are stored once, from the last flag-setting op (a conditional
  branch tests that value directly);
* the only fault checks are at the ops that can fault (a DIV/MOD by a
  register), each with its own exit that records the faulting index;
* memory addresses go to locals and become the record's ``holes`` list
  in one step;
* the monitor's per-block work is inlined too, the way PIN inlines
  analysis calls into a trace (paper Fig. 5): a hook that declares an
  :func:`instrumentation` gets, on the block's plain fall-through or
  branch exit, that work done in the same frame (taint summary, bbfreq
  count, provenance note, see :data:`PARTS`) and no record at all —
  the function returns None.  Faults, syscalls, HLT and (with
  :data:`RECORD_CALLS`) CALL/RET still return a :class:`BlockRecord`,
  and with no instrumentation (``None``) every exit does;
* a memory-touching block's taint applier is not even called in its
  steady state: the generated code checks the state the applier
  published on the plan (``plan.taint_steady``) — the shadow register
  file's generation and identity, then one page probe per loaded
  address, compared by identity with the applier's front-cache key —
  and then only stores the tags that changed.  Anything else calls the
  applier, which stays the one implementation of the block's taint
  (:meth:`_Emitter.steady`).  What this reads of the block's summary
  (:func:`taint_layout`) is part of the code's cache key.

The source is generated from the block's *shape* only — per instruction,
the opcode and its GP register names (:attr:`BlockPlan.shape`).  Every
guest value (immediates, offsets, branch targets, fall-through and fault
addresses, fault messages, the block's own address) is a default
argument bound from :attr:`BlockPlan.consts` and :attr:`BlockPlan.start`
(an op's own slice of them, for a per-op function), so no
guest-controlled text reaches ``compile()``, and a register name that
is not in ``GP_REGISTERS`` stops the emitter.  The compiled code objects
are cached process-wide in :data:`CODE_CACHE`: block and trace code by
shape, instrumentation and taint layout (bounded, least recently used
first out), so a new block of a known shape costs one
``types.FunctionType`` call instead of a ``compile()``, and so does
re-fusing a plan for another instrumentation (plans are shared across
monitor configurations by a warm engine cache); per-op code by op shape,
in a table the ISA bounds (:data:`OP_SHAPES`), so it evicts nothing.

A generated function is called ``fused(plan, cpu, m)`` with the hook's
per-process :class:`MonitorContext` ``m`` (None for no monitor work).
It takes the plan as an argument (the record and the taint applier need
it) and does not close over it, so a dropped plan is freed by reference
counting, without the cycle collector.

PIN compiles *traces* — single-entry, multi-exit runs of blocks linked
in its code cache — and so does this module, for loops.  Once a fused
block has run :data:`TRACE_THRESHOLD` times and heads a static cycle of
at most :data:`MAX_TRACE_BLOCKS` translated blocks of its own image,
each ending in a jump, a fall-through or a conditional branch
(:func:`form_trace`), the cycle gets one generated function,
``trace(plan, cpu, m, limit)`` (:func:`trace_source`), kept on the head
as a :class:`Trace`.  It runs whole iterations while one more fits in
``limit``, with the registers in locals across blocks and iterations
and each block's inlined taint work in order (in long-guest's hot loop,
the steady state above takes its applier from 98,304 calls per run to
411); a branch off the cycle is a side exit.  At any exit it writes
back registers and flags, sets the pc, settles the entry counts
(``fastpath_blocks``, bbfreq) and returns ``(instructions, block
entries)``.  The kernel enters a trace only where a whole iteration
fits its budget and runs the rest block by block, so virtual time is
unchanged.  Traces form only for an
instrumentation (a hook on the record path sees every block), are
keyed on it like fused functions, and share :data:`CODE_CACHE`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import CodeType, FunctionType
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.isa.cpu import CpuFault
from repro.isa.record import EXIT_FAULT, EXIT_HALT, EXIT_SYSCALL, BlockRecord
from repro.isa.registers import CPUID_REGISTERS, GP_REGISTERS
from repro.taint.shadow import PAGE_SHIFT
from repro.taint.tags import EMPTY

if TYPE_CHECKING:
    from repro.isa.translate import BlockPlan, TaintSummary

#: Shape-item marker for an immediate operand (its value is a constant).
SHAPE_IMM = "#"

#: Block and trace code objects kept in :data:`CODE_CACHE`.  One
#: in-process 210-variant sweep round (seed 7) translates 2,647 blocks
#: of 321 distinct shapes, 59 of them hot enough to fuse (66 block and
#: trace code objects in all), so the bound only caps adversarial shape
#: churn: a code object takes about 1.4 kB for a 2-instruction block
#: and 7.7 kB for a 64-instruction one, so a full cache of blocks holds
#: at most ~8 MB.  Loop traces share the bound; one over four
#: 64-instruction blocks takes about four times a block's, so ~32 MB at
#: worst.  The op table is not under this bound: it holds at most
#: :data:`OP_SHAPES` code objects, about 1.5 MB when full (99 after
#: that round).
CODE_CACHE_MAX = 1024

#: Full executions of a fused block (see ``BlockPlan.runs``) after which
#: the kernel tries to make it the head of a loop trace.  The first
#: JIT_THRESHOLD of them run on the per-op path, so a loop head is
#: tried after 16 plain exits of its fused function: by then every
#: block of its cycle has run (and been translated) at least once.
TRACE_THRESHOLD = 32

#: Most blocks one loop trace holds.
MAX_TRACE_BLOCKS = 4

#: The generated functions' globals: they look nothing up, so they get
#: no builtins either.
_GLOBALS: Dict[str, object] = {"__builtins__": {}}

_REGISTERS = frozenset(GP_REGISTERS)
_ARITH = {"add": "+", "sub": "-", "mul": "*", "xor": "^", "and": "&",
          "or": "|"}
_SHIFTS = {"shl": "<<", "shr": ">>"}
#: Branch condition on the last flag value, and on the cpu's stored
#: flags for a block that sets none (zf == value == 0, sf == value < 0).
_JCC = {
    "jz": ("{} == 0", "cpu.zf"),
    "jnz": ("{} != 0", "not cpu.zf"),
    "jl": ("{} < 0", "cpu.sf"),
    "jle": ("{} <= 0", "cpu.sf or cpu.zf"),
    "jg": ("{} > 0", "not (cpu.sf or cpu.zf)"),
    "jge": ("{} >= 0", "not cpu.sf"),
}


# -- inlined monitor work -----------------------------------------------------
#: Instrumentation parts: the per-block monitor work a hook can have a
#: fused block do on its plain exit (``KernelHooks.block_instrumentation``).
#: Each reads the :class:`MonitorContext` slots named beside it.
#:
#: * count the full-block taint application (``monitor.fastpath_blocks``)
#:   and apply the block's summary: ``plan.taint_apply``, compiled on
#:   first use by ``install(plan, executed)``, called with ``shadow`` and
#:   the address trace; nothing at all for a summary that moves no tags;
TAINT = "taint"
#: * with TAINT, note a taint-carrying plan once (``seen``, ``observe``);
PROVENANCE = "provenance"
#: * count an application basic block at its leader
#:   (``shadow.app_leaders``, ``shadow.bb_counts``, ``shadow.last_app_bb``);
BBFREQ = "bbfreq"
#: * CALL/RET exits return their record instead (the hook reads the
#:   call and return targets).
RECORD_CALLS = "record_calls"
PARTS = (TAINT, PROVENANCE, BBFREQ, RECORD_CALLS)

_KEYS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

#: What a memory-touching block's inlined taint steady state reads of
#: its summary: ``(live-in count, read hole indices, store hole
#: indices)`` (see :func:`taint_layout`).
Layout = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


def _check_parts(parts) -> None:
    unknown = set(parts) - set(PARTS)
    if unknown:
        raise ValueError(f"unknown instrumentation {sorted(unknown)!r}")


def instrumentation(*parts: str) -> Tuple[str, ...]:
    """The canonical key for a set of :data:`PARTS`: one object per
    set, so a plan checks it against its fused function's with ``is``."""
    _check_parts(parts)
    key = tuple(part for part in PARTS if part in parts)
    return _KEYS.setdefault(key, key)


class MonitorContext:
    """What an instrumented block function reads: one per monitored
    process, handed to it as ``m`` (see :data:`PARTS`)."""

    __slots__ = ("monitor", "shadow", "install", "seen", "observe")

    def __init__(self, monitor, shadow, install, seen, observe) -> None:
        self.monitor = monitor
        self.shadow = shadow
        self.install = install
        self.seen = seen
        self.observe = observe


def taint_layout(summary: TaintSummary) -> Optional[Layout]:
    """The :data:`Layout` of a block's taint summary, or None when the
    summary touches no memory (its applier, if any, is always called).

    It is not a function of the block's shape (an always-faulting
    ``div r, 0`` drops ``r`` from the shape but not from the summary),
    so :data:`CODE_CACHE` keys on it.
    """
    if not (summary.read_holes or summary.mem_writes):
        return None
    return (len(summary.live_in), summary.read_holes,
            tuple(idx for idx, _ in summary.mem_writes))


class _Emitter:
    """Writes the body of one block function from its shape, or of one
    op's function from its op shape (:func:`op_source`)."""

    def __init__(self, instrumentation: Optional[Tuple[str, ...]],
                 noop: bool, layout: Optional[Layout],
                 per_op: bool = False) -> None:
        self.instrumentation = instrumentation
        #: Writing one op's function: the register file, memory, address
        #: trace and record are its arguments, each address is appended
        #: to ``holes`` as it is made, a fault raises, and an exit only
        #: sets the pc and the record's fields.
        self.per_op = per_op
        self.noop = noop
        self.layout = layout
        self.nconsts = 0
        self.nholes = 0
        self.entry: List[str] = []     # registers loaded at entry
        self.live = set()              # registers held in a local
        self.written: List[str] = []   # registers to write back
        #: The local holding the last flag-setting value (a register,
        #: or ``f``), None until an op sets flags.
        self.flag: Optional[str] = None
        self.lines: List[str] = []
        self.uses_cells = False
        self.uses_cget = False
        self.dead = False              # past an op that always faults
        self.executed = 0              # instructions emitted so far
        #: The local holding the plan the block's monitor work reads,
        #: the first address local of the block, and the line indent
        #: (a trace holds several blocks inside its loop).
        self.plan = "plan"
        self.hole_base = 0
        self.pad = "    "
        #: The shadow's register file ``rg`` and page-table probe ``pt``
        #: are bound once, before a trace's loop, not per block.
        self.bound = False

    # -- names ---------------------------------------------------------
    def const(self) -> str:
        name = f"k{self.nconsts}"
        self.nconsts += 1
        return name

    def hole(self) -> str:
        name = f"h{self.nholes}"
        self.nholes += 1
        return name

    def holes(self) -> str:
        """The block's address locals so far, comma-separated."""
        return ", ".join(f"h{i}" for i in range(self.hole_base, self.nholes))

    @staticmethod
    def reg(name: str) -> str:
        if name not in _REGISTERS:
            raise ValueError(f"not a GP register: {name!r}")
        return name

    def read(self, name: str) -> str:
        name = self.reg(name)
        if name not in self.live:
            self.live.add(name)
            self.entry.append(name)
        return name

    def src(self, operand: str) -> str:
        return self.const() if operand == SHAPE_IMM else self.read(operand)

    def write(self, name: str, sets_flag: bool = False) -> str:
        name = self.reg(name)
        if self.flag == name and not sets_flag:
            # The pending flag value is about to be overwritten.
            self.emit(f"f = {name}")
            self.flag = "f"
        self.live.add(name)
        if name not in self.written:
            self.written.append(name)
        return name

    def emit(self, line: str, indent: str = "") -> None:
        if not self.dead:
            self.lines.append(self.pad + indent + line)

    def track(self, addr: str) -> None:
        """An op's address goes to the trace as it is made (a block's
        stay in locals until its exit)."""
        if self.per_op:
            self.emit(f"holes.append({addr})")

    def load(self, addr: str) -> str:
        """The value of the data cell at ``addr`` (0 if never written):
        a block binds ``cells.get`` once, an op calls it in place."""
        if self.per_op:
            return f"cells.get({addr}, 0)"
        self.uses_cget = True
        return f"cget({addr}, 0)"

    def prologue(self) -> List[str]:
        """The function's first lines: the register file, memory and
        register locals its body reads."""
        lines = []
        if not self.per_op and (self.entry or self.written):
            lines.append("    regs = cpu.regs._values")
        if not self.per_op and (self.uses_cells or self.uses_cget):
            lines.append("    cells = cpu.memory.cells")
        if self.uses_cget:
            lines.append("    cget = cells.get")
        lines.extend(f"    {name} = regs[{name!r}]" for name in self.entry)
        return lines

    # -- exits ---------------------------------------------------------
    def state(self, indent: str = "") -> None:
        """Write back registers and flags."""
        for name in self.written:
            self.emit(f"regs[{name!r}] = {name}", indent)
        if self.flag is not None:
            self.emit(f"cpu.zf = {self.flag} == 0", indent)
            self.emit(f"cpu.sf = {self.flag} < 0", indent)

    def record(self, pc: str, fields: Tuple[str, ...] = (),
               indent: str = "") -> None:
        """Set the pc, build the record (with the address trace and
        ``fields``) and return it; an op sets the pc and ``fields`` on
        its caller's record."""
        if self.per_op:
            self.emit(f"cpu.pc = {pc}", indent)
            for line in fields:
                self.emit(line, indent)
            return
        self.emit("rec = BlockRecord(plan)", indent)
        holes = self.holes()
        if holes:
            self.emit(f"rec.holes = [{holes}]", indent)
        self.emit(f"cpu.pc = rec.next_pc = {pc}", indent)
        for line in fields:
            self.emit(line, indent)
        self.emit(f"rec.executed = {self.executed}", indent)
        self.emit("return rec", indent)

    def leave(self, pc: str) -> None:
        """A plain exit: set the pc, then run the inlined monitor work
        and return None — or, with no instrumentation, return the
        record."""
        parts = self.instrumentation
        if parts is None:
            self.record(pc)
            return
        self.emit(f"cpu.pc = {pc}")
        if self.applies() or BBFREQ in parts:
            self.emit("sh = m.shadow")
        if TAINT in parts:
            self.emit("m.monitor.fastpath_blocks += 1")
        self.taint()
        if BBFREQ in parts:
            self.emit("if s in sh.app_leaders:")
            self.emit("c = sh.bb_counts", "    ")
            self.emit("c[s] = c.get(s, 0) + 1", "    ")
            self.emit("sh.last_app_bb = s", "    ")
        self.emit("return")

    def applies(self) -> bool:
        """Whether the block's monitor work calls a taint applier."""
        parts = self.instrumentation
        return parts is not None and TAINT in parts and not self.noop

    def taint(self) -> None:
        """Apply the block's taint summary to the shadow ``sh`` and note
        the plan for provenance (nothing for a summary that moves no
        tags).  With a :data:`Layout`, the applier's steady state is
        inlined (:meth:`steady`) and the applier called only when it
        does not hold."""
        if not self.applies():
            return
        plan = self.plan
        holes = self.holes()
        call = [
            f"ap = {plan}.taint_apply",
            "if ap is None:",
            f"    ap = m.install({plan}, {self.executed})",
            f"ap(sh, ({holes},))" if holes else "ap(sh, ())",
        ]
        if self.layout is None:
            for line in call:
                self.emit(line)
        else:
            self.steady(call)
        if PROVENANCE in self.instrumentation:
            self.emit(f"if {plan} not in m.seen:")
            self.emit(f"m.observe({plan})", "    ")

    def steady(self, call: List[str]) -> None:
        """The hit on the applier's published steady state
        (``plan.taint_steady``, a ``repro.harrier.dataflow.SteadyState``):
        the register file is the one it brought up to date, and every
        read hole's cell is, by identity, the one in its key; then only
        the stores whose cell holds other tags (absent == EMPTY) are
        made.  Anything else runs ``call``, the applier call."""
        nlive, reads, stores = self.layout
        count = self.nholes - self.hole_base
        if any(not 0 <= idx < count for idx in reads + stores):
            raise ValueError("taint layout does not fit the block")
        base = self.hole_base
        self.emit(f"st = {self.plan}.taint_steady")
        if not self.bound:
            self.emit("rg = sh.regs")
        self.emit("ok = st is not None and st.gen == rg.gen "
                  "and st.regs is rg._tags")
        probes = [] if self.bound else ["pt = sh.memory._pages.get"]
        if reads:
            probes.append("ky = st.key")
            probes.append("ok = " + " and ".join(
                f"(None if (pg := pt(h{base + idx} >> {PAGE_SHIFT})) "
                f"is None else pg.get(h{base + idx})) is ky[{nlive + j}]"
                for j, idx in enumerate(reads)
            ))
        if probes:
            self.emit("if ok:")
            for line in probes:
                self.emit(line, "    ")
        if stores:
            self.emit("if ok:")
            self.emit("ts = st.stores", "    ")
            for j, idx in enumerate(stores):
                addr = f"h{base + idx}"
                self.emit(f"if (E if (pg := pt({addr} >> {PAGE_SHIFT})) "
                          f"is None else pg.get({addr}, E)) is not ts[{j}]:",
                          "    ")
                self.emit(f"sh.memory.set({addr}, ts[{j}])", "        ")
            self.emit("else:")
        else:
            self.emit("if not ok:")
        for line in call:
            self.emit(line, "    ")

    def fault(self, halt: bool, indent: str = "") -> None:
        """The exit of a fault at the current instruction (not retired;
        the pc moves past it, as the interpreter leaves it).  An op
        raises instead, having written no register: its plan settles
        the record and the pc."""
        message = self.const()
        pc = self.const()
        if self.per_op:
            if halt:
                self.emit("cpu.halted = True", indent)
            self.emit(f"raise CpuFault({message})", indent)
            return
        self.state(indent)
        if halt:
            self.emit("cpu.halted = True", indent)
        self.record(pc, (
            f"rec.kind = {EXIT_FAULT}",
            f"rec.fault = CpuFault({message})",
        ), indent)

    # -- instructions --------------------------------------------------
    def straight(self, item: Tuple[str, ...]) -> None:
        op = item[0]
        if op == "mov":
            value = self.src(item[2])
            self.emit(f"{self.write(item[1])} = {value}")
        elif op == "load":
            offset = self.const()
            base = self.read(item[2])
            addr = self.hole()
            self.emit(f"{addr} = {base} + {offset}")
            self.track(addr)
            self.emit(f"{self.write(item[1])} = {self.load(addr)}")
        elif op == "store":
            offset = self.const()
            base = self.read(item[1])
            addr = self.hole()
            self.emit(f"{addr} = {base} + {offset}")
            self.track(addr)
            self.uses_cells = True
            self.emit(f"cells[{addr}] = {self.src(item[2])}")
        elif op in _ARITH or op in _SHIFTS:
            value = self.src(item[2])
            dst = self.read(item[1])
            self.write(dst, sets_flag=True)
            if op in _ARITH:
                self.emit(f"{dst} = {dst} {_ARITH[op]} {value}")
            else:
                self.emit(f"{dst} = {dst} {_SHIFTS[op]} ({value} & 63)")
            self.flag = dst
        elif op in ("div", "mod"):
            dst = self.read(item[1])
            if item[2] == SHAPE_IMM:
                value = self.const()  # never zero: that decodes to a fault
            else:
                value = self.read(item[2])
                self.emit(f"if {value} == 0:")
                self.fault(halt=True, indent="    ")
            # Truncating division, exact at any size: floor division,
            # then one step back toward zero when the quotient is
            # negative and inexact (a float quotient would overflow past
            # 2**1024 and lose digits past 2**53).
            self.emit(f"q = {dst} // {value}")
            self.emit(f"if q < 0 and q * {value} != {dst}:")
            self.emit("q += 1", "    ")
            self.write(dst, sets_flag=True)
            if op == "div":
                self.emit(f"{dst} = q")
            else:
                self.emit(f"{dst} = {dst} - q * {value}")
            self.flag = dst
        elif op == "cmp":
            value = self.src(item[2])
            self.emit(f"f = {self.read(item[1])} - {value}")
            self.flag = "f"
        elif op == "push":
            value = self.src(item[1])
            self.read("esp")
            self.write("esp")
            addr = self.hole()
            self.uses_cells = True
            if value == "esp":
                # push esp stores esp as it was before the push.
                self.emit(f"{addr} = esp - 1")
                self.track(addr)
                self.emit(f"cells[{addr}] = esp")
                self.emit(f"esp = {addr}")
            else:
                self.emit(f"esp = {addr} = esp - 1")
                self.track(addr)
                self.emit(f"cells[{addr}] = {value}")
        elif op == "pop":
            addr = self.hole()
            self.emit(f"{addr} = {self.read('esp')}")
            self.track(addr)
            self.emit(f"{self.write(item[1])} = {self.load(addr)}")
            self.emit(f"{self.write('esp')} = {addr} + 1")
        elif op == "cpuid":
            for name in CPUID_REGISTERS:
                value = self.const()
                self.emit(f"{self.write(name)} = {value}")
        elif op == "nop":
            pass
        elif op == "fault":
            self.fault(halt=len(item) > 1)
            self.dead = True
        else:
            raise ValueError(f"unknown shape item {op!r}")

    def exit(self, item: Tuple[str, ...]) -> None:
        """The block's final item: its control transfer or fall-through."""
        op = item[0]
        if op == "fault":
            self.straight(item)  # a terminator that always faults
            return
        if op in ("jmp", "fall"):
            pc = self.const()
        elif op in _JCC:
            target = self.const()
            fall = self.const()
            on_value, on_flags = _JCC[op]
            cond = on_value.format(self.flag) if self.flag else on_flags
            pc = f"{target} if {cond} else {fall}"
        elif op == "call":
            if item[1] == SHAPE_IMM:
                pc = self.const()
            else:
                # Read before the push: ``call esp`` jumps to the old esp.
                self.emit(f"t = {self.read(item[1])}")
                pc = "t"
            ret = self.const()
            self.read("esp")
            self.write("esp")
            addr = self.hole()
            self.uses_cells = True
            self.emit(f"esp = {addr} = esp - 1")
            self.track(addr)
            self.emit(f"cells[{addr}] = {ret}")
            fields = (f"rec.call_target = {pc}",
                      f"rec.call_return_addr = {ret}")
        elif op == "ret":
            # The return-address read is no taint hole (RET moves no
            # tags), so it records no address.
            self.emit(f"t = {self.load(self.read('esp'))}")
            self.emit(f"{self.write('esp')} = esp + 1")
            pc = "t"
            fields = ("rec.ret_target = t",)
        elif op in ("int", "hlt"):
            pc = self.const()
        else:
            raise ValueError(f"unknown exit item {op!r}")
        self.state()
        if op != "fall":
            self.executed += 1
        if op in ("int", "hlt"):
            if op == "hlt":
                self.emit("cpu.halted = True")
            kind = EXIT_SYSCALL if op == "int" else EXIT_HALT
            self.record(pc, (f"rec.kind = {kind}",))
        elif op in ("call", "ret") and (
            self.instrumentation is None
            or RECORD_CALLS in self.instrumentation
        ):
            self.record(pc, fields)
        else:
            self.leave(pc)


def block_source(shape: Tuple[tuple, ...],
                 instrumentation: Optional[Tuple[str, ...]],
                 noop: bool,
                 layout: Optional[Layout]) -> str:
    """The Python source of the fused function for ``shape``, with the
    monitor work ``instrumentation`` names inlined at its plain exits
    (``noop``: the block's taint summary moves no tags; ``layout``: its
    :func:`taint_layout`, whose applier steady state is inlined too).

    Raises ValueError for an item, register name or instrumentation
    part the emitter does not know, or a layout that does not fit the
    block, so nothing but opcode names, GP register names, small
    numbers and the emitter's own identifiers is ever written.
    """
    if instrumentation is not None:
        _check_parts(instrumentation)
    em = _Emitter(instrumentation, noop, layout)
    for item in shape[:-1]:
        em.straight(item)
        em.executed += 1
    em.exit(shape[-1])
    params = ", ".join(
        ["plan", "cpu", "m", "BlockRecord", "CpuFault", "E", "s"]
        + [f"k{i}" for i in range(em.nconsts)]
    )
    return "\n".join([f"def block({params}):"] + em.prologue()
                     + em.lines) + "\n"


def op_source(key: tuple) -> str:
    """The Python source of the per-op function for the op shape
    ``key``: a straight-line shape item (a ``plan.shape`` entry) gives
    ``op(cpu, regs, cells, holes, k0, ...)``, a block terminator's shape
    items give ``op(cpu, regs, cells, holes, rec, k0, ...)``.

    It is :class:`_Emitter`'s code for the item, on the register dict
    ``regs`` and the data cells ``cells``: it writes back what it
    changed and stores ZF/SF after a flag-setting op, appends each
    address to ``holes``, and at a fault sets ``cpu.halted`` where the
    instruction halts and raises CpuFault before writing any register.
    A terminator sets ``cpu.pc`` and ``rec``'s kind and CALL/RET fields.
    Raises ValueError for a name the emitter does not know, like
    :func:`block_source`.
    """
    em = _Emitter(None, False, None, per_op=True)
    params = ["cpu", "regs", "cells", "holes"]
    if type(key[0]) is tuple:
        for item in key[:-1]:
            em.straight(item)
        em.exit(key[-1])
        params.append("rec")
    else:
        em.straight(key)
        em.state()
    params += [f"k{i}" for i in range(em.nconsts)]
    body = em.prologue() + em.lines
    return "\n".join([f"def op({', '.join(params)}):"]
                     + (body or ["    pass"])) + "\n"


#: Ops that set ZF/SF.
_SETS_FLAGS = frozenset(_ARITH) | frozenset(_SHIFTS) | {"div", "mod", "cmp"}


def traceable(shapes: Tuple[Tuple[tuple, ...], ...]) -> bool:
    """Whether a cycle of blocks with these shapes (head first) can run
    as one loop trace: no op with a fault exit (a DIV/MOD by a register,
    a decode-time fault), every block ending in a jump, a fall-through
    or a conditional branch, and the flags set in the cycle before its
    first branch reads them, so no branch reads a flag value carried
    across the back edge."""
    flags = False
    for shape in shapes:
        for item in shape[:-1]:
            op = item[0]
            if op == "fault" or (op in ("div", "mod")
                                 and item[2] != SHAPE_IMM):
                return False
            flags = flags or op in _SETS_FLAGS
        op = shape[-1][0]
        if op in _JCC:
            if not flags:
                return False
        elif op not in ("jmp", "fall"):
            return False
    return True


def trace_source(shapes: Tuple[Tuple[tuple, ...], ...],
                 branches: Tuple[Optional[bool], ...],
                 instrumentation: Tuple[str, ...],
                 noops: Tuple[bool, ...],
                 layouts: Tuple[Optional[Layout], ...]) -> str:
    """The Python source of the loop trace over blocks with ``shapes``
    (head first, each followed by the next and the last by the head),
    with ``instrumentation``'s monitor work inlined.

    ``branches`` says, per block ending in a conditional branch, whether
    the cycle continues at the branch target (True) or falls through
    (False); the other direction is a side exit.  ``noops``: per block,
    its taint summary moves no tags; ``layouts``: per block, its
    :func:`taint_layout` (None: none).  The per-op code is
    :class:`_Emitter`'s; every register the cycle touches is loaded once
    and stays in a local across blocks and iterations.  The function is
    ``trace(plan, cpu, m, limit)`` with the head plan, and runs whole
    iterations while they fit in ``limit`` (at least one must).  At a
    side exit, or once no further iteration fits, it writes back the
    registers and flags, sets the pc, settles the entry counts
    (``monitor.fastpath_blocks``, bbfreq), notes the taint-carrying
    blocks that ran for provenance, and returns ``(instructions, block
    entries)``.  Raises ValueError for a cycle that is not
    :func:`traceable` and, like :func:`block_source`, for any name the
    emitter does not know.
    """
    _check_parts(instrumentation)
    if not traceable(shapes):
        raise ValueError("not a traceable cycle")
    count = len(shapes)
    # Pass one finds every register the cycle reads or writes.
    probe = _Emitter(instrumentation, False, None)
    for shape in shapes:
        for item in shape[:-1]:
            probe.straight(item)
    # Provenance is noted at the exits, not per iteration.
    em = _Emitter(tuple(p for p in instrumentation if p != PROVENANCE),
                  False, None)
    em.entry = probe.entry + [
        name for name in probe.written if name not in probe.entry
    ]
    em.live = set(em.entry)
    em.written = list(probe.written)
    em.pad = "        "
    em.bound = True
    parts = instrumentation
    lengths = [len(shape) - (shape[-1][0] == "fall") for shape in shapes]
    cost = sum(lengths)
    taint = [TAINT in parts and not noop for noop in noops]
    plans = ["plan"] + [f"p{j}" for j in range(1, count)]

    def leave(j: int, pc: str, indent: str) -> None:
        """Exit after block ``j`` of iteration ``i`` to ``pc``."""
        entries = f"i * {count} + {j + 1}"
        em.state(indent)
        em.emit(f"cpu.pc = {pc}", indent)
        if TAINT in parts:
            em.emit(f"m.monitor.fastpath_blocks += {entries}", indent)
        # Blocks 0..j ran i + 1 times, the rest i times.
        later = range(j + 1, count)

        def ran(p: int, test: str) -> str:
            return f"if i and {test}:" if p in later else f"if {test}:"

        if PROVENANCE in parts:
            for p in range(count):
                if taint[p]:
                    em.emit(ran(p, f"{plans[p]} not in m.seen"), indent)
                    em.emit(f"m.observe({plans[p]})", indent + "    ")
        if BBFREQ in parts:
            # The last app block to run is the last one set below.
            em.emit("c = sh.bb_counts", indent)
            for p in range(count):
                em.emit(ran(p, f"s{p} in sh.app_leaders"), indent)
                runs = "i" if p in later else "i + 1"
                em.emit(f"c[s{p}] = c.get(s{p}, 0) + {runs}", indent + "    ")
            for p in [*later, *range(j + 1)]:
                em.emit(ran(p, f"s{p} in sh.app_leaders"), indent)
                em.emit(f"sh.last_app_bb = s{p}", indent + "    ")
        em.emit(f"return i * {cost} + {sum(lengths[:j + 1])}, {entries}",
                indent)

    for j, (shape, taken, noop, layout) in enumerate(
            zip(shapes, branches, noops, layouts)):
        em.plan = plans[j]
        em.noop = noop
        em.layout = layout
        em.hole_base = em.nholes
        em.executed = lengths[j]
        for item in shape[:-1]:
            em.straight(item)
        em.taint()
        op = shape[-1][0]
        if op in _JCC:
            target, fall = em.const(), em.const()
            cond = _JCC[op][0].format(em.flag)
            if taken:
                em.emit(f"if not ({cond}):")
                leave(j, fall, "    ")
            else:
                em.emit(f"if {cond}:")
                leave(j, target, "    ")
        else:
            em.const()  # the jump target / fall-through: the next block
    em.emit("if i == n:")
    leave(count - 1, "s0", "    ")
    em.emit("i += 1")
    params = ", ".join(
        ["plan", "cpu", "m", "limit", "E"]
        + [f"p{j}" for j in range(1, count)]
        + [f"s{j}" for j in range(count)]
        + [f"k{i}" for i in range(em.nconsts)]
    )
    head = [f"def trace({params}):"] + em.prologue()
    if BBFREQ in parts or any(taint):
        head.append("    sh = m.shadow")
    if any(layout is not None and applies
           for layout, applies in zip(layouts, taint)):
        head += ["    rg = sh.regs", "    pt = sh.memory._pages.get"]
    head += [f"    n = limit // {cost} - 1", "    i = 0", "    while True:"]
    return "\n".join(head + em.lines) + "\n"


def _function_code(source: str, filename: str) -> CodeType:
    module = compile(source, filename, "exec", dont_inherit=True)
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _compile_op(key: tuple) -> CodeType:
    return _function_code(op_source(key), "<blockjit-op>")


def _compile_trace(*args) -> CodeType:
    return _function_code(trace_source(*args), "<blockjit-trace>")


def compile_shape(shape: Tuple[tuple, ...],
                  instrumentation: Optional[Tuple[str, ...]],
                  noop: bool,
                  layout: Optional[Layout]) -> CodeType:
    """Compile the block source; returns the function's code object."""
    return _function_code(block_source(shape, instrumentation, noop,
                                       layout), "<blockjit>")


_R = len(GP_REGISTERS)
#: Straight-line shape items the decoder can produce: mov, cmp and the
#: ten ALU ops into a register from a register or an immediate, load
#: from a base register, store through one of a register or an
#: immediate, push either, pop, cpuid, nop and the two decode-time
#: faults.
_STRAIGHT_SHAPES = (12 * _R * (_R + 1) + _R * _R + _R * (_R + 1)
                    + (_R + 1) + _R + 4)
#: Op shapes the decoder can produce, the op table's bound (2,063): the
#: straight items, and the terminators — the seven jumps, call through
#: a register or to an immediate, ret, int, hlt, the two faults, and
#: each straight item ending a cut block.
OP_SHAPES = 2 * _STRAIGHT_SHAPES + 7 + (_R + 1) + 3 + 2


class CodeCache:
    """Block shape (or loop-trace shapes), instrumentation and taint
    layout -> compiled code object, bounded; and the op table, op shape
    -> compiled code object of its per-op function.

    The least recently *used* block or trace key is evicted first once
    ``max_entries`` is exceeded.  Eviction drops only the cache's
    reference: functions already built from the code keep it.  Hits and
    misses happen once per fused block or built trace, never per
    execution.  The op table is bounded by the ISA (:data:`OP_SHAPES`),
    so it keeps every entry; it is probed once per translated
    instruction.
    """

    def __init__(self, max_entries: int = CODE_CACHE_MAX) -> None:
        self.max_entries = max_entries
        self._codes: "OrderedDict[tuple, CodeType]" = OrderedDict()
        self._lock = threading.Lock()
        #: ``compile()`` calls (cache misses).
        self.compiles = 0
        self.evictions = 0
        #: Functions built (blocks fused, loop traces built), hits and
        #: misses together.
        self.fused = 0
        self.traces = 0
        self._ops: Dict[tuple, CodeType] = {}
        self.op_compiles = 0

    def op_code(self, key: tuple) -> CodeType:
        """The code of the per-op function for the op shape ``key``
        (:func:`op_source`), compiled on its first use in the process."""
        code = self._ops.get(key)
        if code is None:
            with self._lock:
                code = self._ops.get(key)
                if code is None:
                    code = self._ops[key] = _compile_op(key)
                    self.op_compiles += 1
        return code

    def code_for(self, shape: Tuple[tuple, ...],
                 instrumentation: Optional[Tuple[str, ...]],
                 noop: bool,
                 layout: Optional[Layout]) -> CodeType:
        # Only the inlined taint statements depend on ``noop`` and
        # ``layout``.
        taint = instrumentation is not None and TAINT in instrumentation
        noop = noop and taint
        if noop or not taint:
            layout = None
        with self._lock:
            self.fused += 1
            return self._get((shape, instrumentation, noop, layout),
                             compile_shape, shape, instrumentation, noop,
                             layout)

    def trace_code_for(self, shapes: Tuple[Tuple[tuple, ...], ...],
                       branches: Tuple[Optional[bool], ...],
                       instrumentation: Tuple[str, ...],
                       noops: Tuple[bool, ...],
                       layouts: Tuple[Optional[Layout], ...]) -> CodeType:
        noops = tuple(noop and TAINT in instrumentation for noop in noops)
        layouts = tuple(None if noop or TAINT not in instrumentation
                        else layout for noop, layout in zip(noops, layouts))
        with self._lock:
            self.traces += 1
            return self._get(
                ("trace", shapes, branches, instrumentation, noops, layouts),
                _compile_trace, shapes, branches, instrumentation, noops,
                layouts,
            )

    def _get(self, key: tuple, make, *args) -> CodeType:
        """The code for ``key``, ``make(*args)`` on a miss (the caller
        holds the lock)."""
        codes = self._codes
        code = codes.pop(key, None)
        if code is None:
            code = make(*args)
            self.compiles += 1
        codes[key] = code  # (re)inserted as most recently used
        while len(codes) > self.max_entries:
            codes.popitem(last=False)
            self.evictions += 1
        return code

    def stats(self) -> Dict[str, int]:
        return {
            "code_objects": len(self._codes),
            "compiles": self.compiles,
            "evictions": self.evictions,
            "fused_blocks": self.fused,
            "traces": self.traces,
            "op_codes": len(self._ops),
            "op_compiles": self.op_compiles,
        }


#: The process-wide code cache (fleet and serve workers each own one).
CODE_CACHE = CodeCache()

#: ``blockjit_*`` gauge name -> :meth:`CodeCache.stats` key.
GAUGES = {
    "blockjit_code_objects": "code_objects",
    "blockjit_compiles": "compiles",
    "blockjit_evictions": "evictions",
    "blockjit_fused_blocks": "fused_blocks",
    "blockjit_traces": "traces",
    "blockjit_op_codes": "op_codes",
    "blockjit_op_compiles": "op_compiles",
}


def sample_gauges(registry, stats: Optional[Dict[str, int]] = None,
                  **labels: str) -> None:
    """Write the code cache's state (this process's, or ``stats`` from
    another) into ``blockjit_*`` gauges on ``registry``."""
    if stats is None:
        stats = CODE_CACHE.stats()
    for gauge, key in GAUGES.items():
        registry.gauge(gauge, **labels).set(float(stats.get(key, 0) or 0))


#: The per-op functions' globals: the fault they raise, no builtins.
_OP_GLOBALS: Dict[str, object] = {"__builtins__": {}, "CpuFault": CpuFault}


def op_function(key: tuple, consts: tuple):
    """The per-op function for the op shape ``key``, with the op's
    ``consts`` (its decoded constants) bound as default arguments."""
    return FunctionType(CODE_CACHE.op_code(key), _OP_GLOBALS, "op", consts)


def fuse(plan: BlockPlan,
         instrumentation: Optional[Tuple[str, ...]] = None):
    """Give ``plan`` its generated function for ``instrumentation`` (an
    :func:`instrumentation` key, or None for a function that returns a
    record at every exit) and return it."""
    summary = plan.taint_summary
    fn = FunctionType(
        CODE_CACHE.code_for(plan.shape, instrumentation, summary.is_noop,
                            taint_layout(summary)),
        _GLOBALS,
        "block",
        (BlockRecord, CpuFault, EMPTY, plan.start) + plan.consts,
    )
    plan.fused = fn
    plan.fused_for = instrumentation
    return fn


# -- loop traces ----------------------------------------------------------------
#: ``BlockPlan.trace_for`` of a block in another block's loop trace: it
#: never heads one itself, and joins no other.
JOINED = object()


class Trace:
    """A loop trace: the cycle of blocks after its head, and its
    generated function ``run(head, cpu, m, limit)`` for the head's
    ``trace_for`` instrumentation.

    Held by the head plan only.  The members are bound into ``run`` as
    default arguments, but the head is passed in, so a trace never
    refers back to the plan holding it and a dropped head (with its
    members) is freed by reference counting.
    """

    __slots__ = ("members", "branches", "cost", "run")

    def __init__(self, members: Tuple[BlockPlan, ...],
                 branches: Tuple[Optional[bool], ...], cost: int) -> None:
        #: The blocks after the head, in cycle order.
        self.members = members
        #: Per block (head first): True/False when its conditional
        #: branch continues the cycle taken/not taken, else None.
        self.branches = branches
        #: Instructions in one iteration: the kernel enters the trace
        #: only when a whole one fits in the budget.
        self.cost = cost
        self.run = None


def _successors(plan: BlockPlan):
    """``(branch direction, pc)`` of each static successor of ``plan``
    (a conditional branch's target and fall-through are its last two
    constants, a jump's target or a fall-through its last one)."""
    op = plan.shape[-1][0]
    if op in _JCC:
        target, fall = plan.consts[-2:]
        return ((True, target), (False, fall))
    if op in ("jmp", "fall"):
        return ((None, plan.consts[-1]),)
    return ()


def _find_cycle(head: BlockPlan, plans: Dict[int, BlockPlan], lo: int,
                hi: int):
    """The shortest traceable static cycle from ``head`` back to it
    through at most MAX_TRACE_BLOCKS blocks of ``plans`` that lie in
    ``[lo, hi)``, are in no trace and head none: ``(members,
    branches)``, or None."""
    paths = [((), ())]
    for _ in range(MAX_TRACE_BLOCKS):
        longer = []
        for members, branches in paths:
            last = members[-1] if members else head
            for taken, pc in _successors(last):
                if pc == head.start:
                    cycle = (head,) + members
                    if traceable(tuple(p.shape for p in cycle)):
                        return members, branches + (taken,)
                    continue
                plan = plans.get(pc)
                if (plan is None or plan in members
                        or plan.trace is not None
                        or plan.trace_for is JOINED
                        or not lo <= pc or plan.pcs[-1] >= hi):
                    continue
                longer.append((members + (plan,), branches + (taken,)))
        paths = longer
    return None


def form_trace(head: BlockPlan, plans: Dict[int, BlockPlan], lo: int,
               hi: int, instrumentation: Tuple[str, ...]) -> Optional[Trace]:
    """Make the hot fused block ``head`` the head of a loop trace run
    for ``instrumentation``, and return it (None when no traceable
    cycle exists).

    The cycle is looked up in ``plans`` only (the head's plan table,
    nothing is translated) and stays inside ``[lo, hi)``, the text of
    the head's image: library plan tables are shared across layouts
    whose app code differs.  A head keeps its cycle: for another
    instrumentation only the function is rebuilt.  Either way
    ``head.trace_for`` becomes ``instrumentation``, so the kernel tries
    a block once per instrumentation.
    """
    head.trace_for = instrumentation
    trace = head.trace
    if trace is None:
        if (plans.get(head.start) is not head or head.start < lo
                or head.pcs[-1] >= hi):
            return None
        cycle = _find_cycle(head, plans, lo, hi)
        if cycle is None:
            return None
        members, branches = cycle
        for plan in members:
            plan.trace_for = JOINED
        trace = head.trace = Trace(members, branches, sum(
            p.length for p in (head,) + members))
    cycle = (head,) + trace.members
    trace.run = FunctionType(
        CODE_CACHE.trace_code_for(
            tuple(p.shape for p in cycle), trace.branches, instrumentation,
            tuple(p.taint_summary.is_noop for p in cycle),
            tuple(taint_layout(p.taint_summary) for p in cycle),
        ),
        _GLOBALS,
        "trace",
        (EMPTY,) + trace.members + tuple(p.start for p in cycle)
        + tuple(k for p in cycle for k in p.consts),
    )
    return trace
