"""Instruction-level dataflow tracking (paper section 7.3.1).

Applies each translated block's taint transfers over the process shadow
state.  The interesting cases, matching the paper's examples:

* ``mov %esp,%ebp`` — destination inherits the source register's tags;
* ``movl $0x4, mem`` — an immediate carries the BINARY tag of the image
  that contains the instruction;
* ``add %ebx,%eax`` — destination gets the *union* of both operands' tags;
* ``cpuid`` — the output registers get the HARDWARE tag.

Every block's taint goes through one path: the applier
:meth:`InstructionDataFlow.install_applier` compiles from the block's
:class:`TaintSummary` (for a partial execution, from its executed
prefix's summary) and caches on the plan.  It evaluates the summary's
support expressions against the entry state in O(#outputs).  Unions
route through a :class:`TagSetInterner`, so the steady state of a guest
loop costs dict probes instead of frozenset allocations.  The reference
these appliers must match, transfer-by-transfer template replay, lives
in ``tests/oracles``.

A memory-touching block's applier also publishes its steady state (a
:class:`SteadyState`, ``plan.taint_steady``): the register file it has
already brought up to date, its front-cache key and the tags it stores.
The block JIT inlines the hit on that state into fused blocks and loop
traces (:mod:`repro.isa.blockjit`), so a hot loop probes its read cells
and stores changed tags without calling the applier; any other case
calls it.  In long-guest's loop trace that took the hot applier from
98,304 calls per run to 411, and all appliers from 107,043 to 6,137.
"""

from __future__ import annotations

from itertools import repeat, takewhile
from typing import Dict

from repro.harrier.state import ProcessShadow
from repro.isa.memory import MAX_CSTRING
from repro.isa.translate import summarize_taint
from repro.taint.shadow import PAGE_SHIFT
from repro.taint.tags import EMPTY, DataSource, TagSet, TagSetInterner

_HARDWARE = TagSet.of(DataSource.HARDWARE)


def _apply_noop(shadow, holes) -> None:
    """Shared applier for blocks whose summary has no taint effects."""


class SteadyState:
    """A memory-touching applier's front-cache hit, published for the
    block JIT's inlined copy of it.

    While the shadow register file is the dict ``regs`` at generation
    ``gen``, the applier has made the register writes its outputs for
    ``key`` ask for, and the register part of ``key`` (its first
    ``len(live_in)`` entries) still holds.  An execution whose read
    holes then probe to exactly (by identity) the cells in the rest of
    ``key`` only has to store ``stores``, one tag set per store hole in
    program order, where a cell holds other tags.  The applier writes
    it; only :meth:`InstructionDataFlow.install_applier` puts it on a
    plan.
    """

    __slots__ = ("gen", "regs", "key", "stores")

    def __init__(self) -> None:
        self.gen = -1
        self.regs = None
        self.key = None
        self.stores = None


class InstructionDataFlow:
    """Compiles block taint summaries into appliers (tag caches only)."""

    def __init__(self, interner: TagSetInterner = None) -> None:
        self._binary_tags: Dict[str, TagSet] = {}
        #: Shared hash-consing table + union memo for the appliers.
        #: May be handed in warm (an ``EngineCache`` reusing interned
        #: sets across a sweep's runs); interning is value-preserving,
        #: so sharing never changes observable output.
        self.interner = interner if interner is not None else TagSetInterner()

    def binary_tag(self, image_name: str) -> TagSet:
        tags = self._binary_tags.get(image_name)
        if tags is None:
            tags = self.interner.intern(
                TagSet.of(DataSource.BINARY, image_name)
            )
            self._binary_tags[image_name] = tags
        return tags

    def install_applier(self, plan, executed: int):
        """Compile the applier for a run of ``plan``'s first ``executed``
        instructions and cache it on the plan — ``plan.taint_apply`` for
        a full execution, ``plan.prefix_apply[executed]`` for a partial
        one.  The applier is a closure ``applier(shadow, holes)`` (the
        execution's memory address trace, ``BlockRecord.holes``): the
        summary's shape is frozen into closure cells so the
        per-execution cost is the entry-key build, one cache probe, and
        the output writes.  A prefix's summary keeps the full block's
        hole indices, so the same compiler serves it.

        The common shapes this collapses:

        * a pure-compute block over clean inputs writes nothing but
          empty sets — a handful of dict pops clearing stale tags;
        * a loop body whose registers already hold the image's BINARY
          tag re-derives the same interned sets via memoized unions —
          per *output*, not per instruction.

        A full execution's memory-touching applier comes with the
        :class:`SteadyState` it publishes, set as ``plan.taint_steady``
        for the block JIT's inlined hit path (None for any other
        applier).  Set here only, so a stand-in for this method leaves
        it None and generated code always calls that stand-in.
        """
        if executed == plan.length:
            applier, steady = self._compile(plan.start, plan.taint_summary)
            plan.taint_apply = applier
            plan.taint_steady = steady
        else:
            applier, _ = self._compile(
                plan.start, summarize_taint(plan.taint[:executed])
            )
            if plan.prefix_apply is None:
                plan.prefix_apply = {}
            plan.prefix_apply[executed] = applier
        return applier

    def _compile(self, start, summary):
        """Build the applier closure for one block (prefix) summary:
        ``(applier, steady)``, with the :class:`SteadyState` a
        memory-touching applier publishes (None for the others).

        The closure captures the block's entry pc, never the plan: the
        applier is stored on the plan, and a reference back would leave
        every dropped plan to the cycle collector.
        """
        if summary.is_noop:
            return _apply_noop, None
        live_in = summary.live_in
        #: Default args for the C-level ``map(rget, live_in, empties)``
        #: key build: absent register == EMPTY.
        empties = (EMPTY,) * len(live_in)
        read_holes = summary.read_holes
        zero_gate = summary.zero_taint_safe
        touch_holes = summary.touch_holes
        evaluate = self._evaluate_summary
        #: key -> outputs; guest loops re-enter with the same entry *tag
        #: values* even as addresses change, so evaluation repeats.
        memo: dict = {}
        #: Single-entry front cache: tuple equality short-circuits on
        #: element identity, so the steady-state hit does not even hash
        #: the key.  Closure cells shared with ``resolve``, which
        #: refreshes them on every miss.
        front_key = None
        front_out = None
        #: (register dict identity, generation) the last *state-neutral*
        #: application / cached reg-key build was made against.  When
        #: they still match, the register file provably has not changed
        #: since — see :attr:`ShadowRegisters.gen`.
        front_rdict = None
        front_rgen = -1
        front_rkey = None

        def resolve(shadow, rtags, holes, key):
            """The front-cache miss path: zero-skip, memo, evaluate.

            Returns the outputs tuple, or None when the zero-taint skip
            applies (nothing tainted can flow in — clean register file,
            no imm/hardware sources, every touched page absent — so
            every output is the empty set and nothing is stale).
            """
            nonlocal front_key, front_out
            if zero_gate and not rtags:
                page_live = shadow.memory.page_live
                for idx in touch_holes:
                    if page_live(holes[idx]):
                        break
                else:
                    return None
            out = memo.get(key)
            if out is None:
                out = evaluate(shadow, start, summary, key)
                if len(memo) >= 64:
                    # Pathological value churn; keep the memo tiny —
                    # the working set refills in a few entries.
                    memo.clear()
                memo[key] = out
            front_key = key
            front_out = out
            return out

        if not (read_holes or summary.mem_writes):
            # Register-only block — the most common shape (about half
            # the executed blocks): no memory holes at all.  Outputs
            # depend on the register file alone, so once an application
            # changes nothing (the guest-loop steady state: every write
            # re-derives the value already there), the block collapses
            # to a generation check until *any* register tag changes.
            def applier(shadow, holes) -> None:
                nonlocal front_rdict, front_rgen
                regs = shadow.regs
                # The raw register-tag dict, like ``BlockPlan.execute``
                # binds the raw register values: absent key == EMPTY,
                # by ShadowRegisters' own invariant.
                rtags = regs._tags
                gen = regs.gen
                if gen == front_rgen and rtags is front_rdict:
                    return
                key = tuple(map(rtags.get, live_in, empties))
                if key == front_key:
                    out = front_out
                else:
                    out = resolve(shadow, rtags, (), key)
                    if out is None:
                        # Zero-taint skip: state-neutral by definition.
                        front_rgen = gen
                        front_rdict = rtags
                        return
                reg_sets, reg_clears = out[0], out[1]
                changed = False
                rget = rtags.get
                for reg, tags in reg_sets:
                    if rget(reg) is not tags:
                        rtags[reg] = tags
                        changed = True
                for reg in reg_clears:
                    if rtags.pop(reg, None) is not None:
                        changed = True
                if changed:
                    regs.gen = gen + 1
                else:
                    # State-neutral: arm the generation skip.
                    front_rgen = gen
                    front_rdict = rtags
            return applier, None
        else:
            # Memory-touching block: the probes must run every time
            # (the hole addresses change between executions), but the
            # register part of the key is reused while the register
            # file's generation holds still.
            #: (generation, register dict) right after the last
            #: application of ``front_out``: while both still match, the
            #: register file holds that application's writes, so the
            #: same outputs would change no register.
            done_rgen = -1
            done_rdict = None
            #: Published on the calls that reach the steady state: the
            #: register writes done and nothing changed (the closure
            #: cells above stay what this applier itself reads).
            steady = SteadyState()

            def applier(shadow, holes) -> None:
                nonlocal front_rdict, front_rgen, front_rkey
                nonlocal done_rdict, done_rgen
                regs = shadow.regs
                rtags = regs._tags
                gen = regs.gen
                if gen == front_rgen and rtags is front_rdict:
                    key = front_rkey
                    publish = False
                else:
                    key = tuple(map(rtags.get, live_in, empties))
                    front_rgen = gen
                    front_rdict = rtags
                    front_rkey = key
                    publish = True
                # The raw page table, like ``regs._tags`` above: the
                # probes and the unchanged-store check below are
                # ``ShadowMemory.probe`` inlined.
                pages = shadow.memory._pages
                for idx in read_holes:
                    addr = holes[idx]
                    page = pages.get(addr >> PAGE_SHIFT)
                    key += (None if page is None else page.get(addr),)
                if key == front_key:
                    out = front_out
                    regs_done = gen == done_rgen and rtags is done_rdict
                else:
                    out = resolve(shadow, rtags, holes, key)
                    if out is None:
                        return
                    regs_done = False
                reg_sets, reg_clears, mem_out, stores = out
                if not regs_done:
                    changed = False
                    rget = rtags.get
                    for reg, tags in reg_sets:
                        if rget(reg) is not tags:
                            rtags[reg] = tags
                            changed = True
                    for reg in reg_clears:
                        if rtags.pop(reg, None) is not None:
                            changed = True
                    if changed:
                        gen += 1
                        regs.gen = gen
                    done_rgen = gen
                    done_rdict = rtags
                    publish = not changed
                if publish:
                    # The register writes for ``key`` are done at
                    # ``gen`` and ``key``'s register part holds there.
                    steady.gen = gen
                    steady.regs = rtags
                    steady.key = key
                    steady.stores = stores
                for idx, tags in mem_out:
                    # A store of the tags the cell already holds (a guest
                    # loop's steady state; absent == EMPTY) changes
                    # nothing: skip it.
                    addr = holes[idx]
                    page = pages.get(addr >> PAGE_SHIFT)
                    if page is None:
                        if tags._tags:
                            shadow.memory.set(addr, tags)
                    elif page.get(addr, EMPTY) is not tags:
                        shadow.memory.set(addr, tags)

            return applier, steady

    def _evaluate_summary(self, shadow, start, summary, key):
        """Evaluate every support expression against the entry values in
        ``key`` (the memo-miss path of the compiled applier).

        Returns ``(reg_sets, reg_clears, mem_out, stores)``: the
        non-empty register writes, the registers whose stale tags must
        be cleared, the memory stores by hole index and their tags alone
        (a :class:`SteadyState`'s ``stores``) — pre-split so the memo-hit
        path applies them with raw dict operations.  An empty output is
        always the EMPTY object.
        """
        union = self.interner.union
        nlive = len(summary.live_in)
        in_vals = dict(zip(summary.live_in, key))
        mem_vals = dict(zip(summary.read_holes, key[nlive:]))
        imm_tags: TagSet = None  # lazily resolved once per block
        hw = _HARDWARE

        def evaluate(support) -> TagSet:
            nonlocal imm_tags
            tags = EMPTY
            for token in support:
                kind = token[0]
                if kind == "reg":
                    tags = union(tags, in_vals[token[1]])
                elif kind == "mem":
                    cell = mem_vals[token[1]]
                    if cell is not None:
                        tags = union(tags, cell)
                elif kind == "imm":
                    if imm_tags is None:
                        image = shadow.code_image.get(start)
                        imm_tags = (
                            self.binary_tag(image.name)
                            if image is not None
                            else EMPTY
                        )
                    tags = union(tags, imm_tags)
                else:  # "hw"
                    tags = union(tags, hw)
            return tags

        reg_sets = []
        reg_clears = []
        for reg, support in summary.reg_writes:
            tags = evaluate(support)
            if tags._tags:
                reg_sets.append((reg, tags))
            else:
                reg_clears.append(reg)
        mem_out = tuple(
            (idx, evaluate(support)) for idx, support in summary.mem_writes
        )
        return (
            tuple(reg_sets),
            tuple(reg_clears),
            mem_out,
            tuple(tags for _, tags in mem_out),
        )

    # -- helper for the routine hooks (gethostbyname) -----------------------
    @staticmethod
    def string_tags(proc, shadow: ProcessShadow, addr: int,
                    max_len: int = MAX_CSTRING) -> TagSet:
        """Union of shadow tags over the NUL-terminated string at ``addr``.

        This is "the data source of the resource ID" (paper section 5.1):
        e.g. the provenance of the host name passed to gethostbyname.
        (A syscall's path is decoded by the kernel, so the event
        generator takes its tags over ``len(path)`` cells instead.)

        The scan window matches :meth:`FlatMemory.read_cstring` (same
        ``MAX_CSTRING`` default, NUL cell excluded); where read_cstring
        faults on an unterminated string, this returns the union over
        the full window — the monitor must stay conservative, never
        raise, for strings only the guest mis-terminated.
        """
        length = len(list(takewhile(bool, map(
            proc.memory.cells.get, range(addr, addr + max_len), repeat(0)
        ))))
        return shadow.memory.union_of_range(addr, length)
