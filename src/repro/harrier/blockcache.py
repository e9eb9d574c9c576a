"""The block translation cache (PIN's code cache, reproduced).

One :class:`BlockCache` holds every :class:`BlockPlan` translated for one
*image layout* — the kernel keys caches per main-executable image, shares
them across fork (instructions are immutable, and the loader's placement
is deterministic per image), and swaps them out on execve (counted as a
flush).  Lookups are one dict probe on the hot path; misses pay the
translation cost exactly once per block leader.

Shared objects are the same code in every layout, so a warm
:class:`BlockCacheStore` also keeps one plan table per library mapping:
a new layout's cache starts with every library block already
translated, and writes the library blocks it translates back.

Hit/miss/translation counts are plain ints.  A cache outlives the runs
that warm it, so the kernel notes each cache's counts when it first
uses one, and a run's registry gets the difference when the run ends
(``blockcache_hits_total``, ``blockcache_misses_total``,
``blockcache_translated_instructions_total``; see
:meth:`repro.kernel.kernel.Kernel.readings`, which also reports the
execve swaps as ``blockcache_flushes_total``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.isa.memory import FlatMemory
from repro.isa.translate import BlockPlan, translate_block

#: One shared library's text range and its cross-layout plan table.
LibraryRange = Tuple[int, int, Dict[int, BlockPlan]]


class BlockCache:
    """Entry-pc -> translated block, for one image layout."""

    __slots__ = (
        "leaders",
        "libraries",
        "plans",
        "hits",
        "misses",
        "flushes",
        "translated_instructions",
        "max_blocks",
    )

    def __init__(
        self,
        leaders: FrozenSet[int] = frozenset(),
        max_blocks: int = 65536,
        libraries: Sequence[LibraryRange] = (),
    ) -> None:
        #: Every image's absolute BB-leader set; blocks are cut so they
        #: never run past one, making each leader a stable cache key.
        self.leaders = leaders
        #: ``(text_start, text_end, plans)`` per shared library whose
        #: plans are shared with other layouts (see
        #: :meth:`BlockCacheStore.library_plans`): they seed this cache,
        #: and a block translated inside one is written back to it.
        self.libraries = tuple(libraries)
        self.plans: Dict[int, BlockPlan] = {}
        self._seed()
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.translated_instructions = 0
        #: Defensive bound; a full cache is flushed wholesale, like PIN's
        #: code cache under pressure.
        self.max_blocks = max_blocks

    def lookup(self, memory: FlatMemory, pc: int) -> BlockPlan:
        """The cached plan entered at ``pc``, translating on first miss.

        Raises :class:`repro.isa.memory.MemoryFault` when ``pc`` is
        unmapped (same message the interpreter's fetch would produce).
        """
        plan = self.plans.get(pc)
        if plan is not None:
            self.hits += 1
            return plan
        plan = translate_block(memory, pc, self.leaders)
        self.misses += 1
        if len(self.plans) >= self.max_blocks:
            self.flush()
        for start, end, shared in self.libraries:
            if start <= pc and plan.pcs[-1] < end:
                # Another layout may have translated it since this cache
                # was seeded: every layout runs the one shared plan (a
                # library loop trace's members are shared plans).
                plan = shared.setdefault(pc, plan)
                break
        self.plans[pc] = plan
        self.translated_instructions += plan.length
        return plan

    def count_hits(self, entries: int) -> None:
        """Count ``entries`` block entries a loop trace made without a
        lookup, so hits still count every block entry."""
        self.hits += entries

    def flush(self) -> None:
        """Drop every translated block (refilled lazily on next lookup;
        shared library plans come straight back)."""
        self.plans.clear()
        self._seed()
        self.flushes += 1

    def _seed(self) -> None:
        for _start, _end, shared in self.libraries:
            self.plans.update(shared)

    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        if total == 0:
            return None
        return self.hits / total

    def stats(self) -> Dict[str, object]:
        # How much of the resident cache the dataflow fast path can
        # collapse: no-op blocks (no taint outputs at all) and
        # zero-taint-safe blocks (skippable outright when the shadow
        # state is clean — no immediate/hardware sources).
        plans = self.plans.values()
        return {
            "blocks": len(self.plans),
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
            "translated_instructions": self.translated_instructions,
            "hit_rate": self.hit_rate(),
            "taint_noop_blocks": sum(
                1 for p in plans if p.taint_summary.is_noop
            ),
            "zero_taint_safe_blocks": sum(
                1 for p in plans if p.taint_summary.zero_taint_safe
            ),
        }

    def __len__(self) -> int:
        return len(self.plans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BlockCache(<{len(self.plans)} blocks, "
            f"{self.hits} hits / {self.misses} misses>)"
        )


class BlockCacheStore:
    """Cross-run warm store: code layout -> :class:`BlockCache`.

    A translated plan is valid for exactly one code layout — the same
    instructions relocated to the same addresses.  The kernel's key is
    the loader's ``layouts``: ``(image, base, resolved relocation
    targets)`` for every mapped image.  Images are immutable and hash by
    identity (:mod:`repro.isa.image`), so two loads produce equal keys
    only when the loader placed the same code identically, which is
    precisely when reusing the cache is sound.  The keys hold their
    images, so none is collected (and no key reused) while the store
    lives.

    A layout whose main image is new (every variant of a sweep) still
    maps the same shared objects, so the store also keeps one plan
    table per library layout.  The loader's relocation memo
    (:attr:`relocated`) is keyed by the same layouts, so a library whose
    relocations resolve into the app gets a separate table per distinct
    app target.  A plan only depends on the code it was cut from (block
    cutting stops at that library's own leaders and text end), so
    library blocks translate once per store instead of once per layout.
    Stores are single-process state (each fleet worker owns its own);
    they are never shared across processes.
    """

    __slots__ = ("_entries", "_libraries", "relocated")

    def __init__(self) -> None:
        self._entries: Dict[tuple, "BlockCache"] = {}
        self._libraries: Dict[tuple, Dict[int, BlockPlan]] = {}
        #: The loader's relocation memo (see :class:`repro.kernel.loader
        #: .Loader`): library layout -> patched text.
        self.relocated: Dict[tuple, tuple] = {}

    def get(self, key: tuple) -> Optional["BlockCache"]:
        return self._entries.get(key)

    def put(self, key: tuple, cache: "BlockCache") -> None:
        self._entries[key] = cache

    def library_plans(self, layout: tuple) -> Dict[int, BlockPlan]:
        """The shared plan table for one library layout, created empty
        on first use."""
        plans = self._libraries.get(layout)
        if plans is None:
            plans = self._libraries[layout] = {}
        return plans

    def library_stats(self) -> Dict[str, int]:
        """Library plan tables held, and the plans across them (serve
        exports each key as a ``blockcache_<key>`` gauge per worker)."""
        return {
            "library_entries": len(self._libraries),
            "library_plans": sum(
                len(plans) for plans in self._libraries.values()
            ),
        }

    def stats(self) -> Dict[str, object]:
        """Aggregate counters across every stored cache."""
        totals = {
            "caches": len(self._entries),
            "blocks": 0,
            "hits": 0,
            "misses": 0,
            "translated_instructions": 0,
        }
        for cache in self._entries.values():
            totals["blocks"] += len(cache)
            totals["hits"] += cache.hits
            totals["misses"] += cache.misses
            totals["translated_instructions"] += (
                cache.translated_instructions
            )
        totals.update(self.library_stats())
        return totals

    def __len__(self) -> int:
        return len(self._entries)

