"""Shadow state: per-register and per-memory-cell tag storage.

Harrier (paper section 7.3.1) "tags each register and memory location with
one or more data sources".  The shadow structures here are the backing store
for that: a :class:`ShadowRegisters` map for the CPU's register file and a
:class:`ShadowMemory` map for the flat address space.

``ShadowMemory`` is a *paged* sparse store: the address space is carved
into fixed-size pages (:data:`PAGE_SIZE` cells) and only pages holding at
least one non-empty tag set exist at all.  That gives the dataflow stage
three properties the flat dict could not:

* range operations (``union_of_range``/``set_range``) skip
  absent pages wholesale, so untainting or summarizing a large buffer
  costs O(live cells), not O(range length);
* "can this block's loads touch tainted memory" is an O(#loads)
  page-presence check (see ``page_live``), the gate of the monitor's
  zero-taint fast path;
* ``copy()`` — hit on every fork — shares pages copy-on-write instead of
  deep-copying a flat dict; a forked process that never writes a page
  never pays for it.

Untagged locations implicitly carry the empty tag set, and the store
maintains the invariant that no *empty* page is ever resident, so page
absence always means "clean".
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.taint.tags import EMPTY, TagSet

#: log2 of the page size.  64 cells per page keeps pages small enough
#: that partially-tainted buffers stay precise, while a guest data
#: section or read() buffer spans only a handful of pages.
PAGE_SHIFT = 6
PAGE_SIZE = 1 << PAGE_SHIFT
_PAGE_MASK = PAGE_SIZE - 1


def _distinct(sets: List[Optional[TagSet]]) -> Iterable[Optional[TagSet]]:
    """``sets`` with each object once.  Cells tagged together share one
    TagSet object, so a run of one object is the usual case;
    ``list.count`` compares by identity first, so that run costs no
    ``__eq__`` call."""
    if not sets or sets.count(sets[0]) == len(sets):
        return sets[:1]
    return dict(zip(map(id, sets), sets)).values()


class ShadowRegisters:
    """Tag set per register name."""

    __slots__ = ("_tags", "gen")

    def __init__(self) -> None:
        self._tags: Dict[str, TagSet] = {}
        #: Mutation generation, bumped on every *value-changing* write
        #: (idempotent re-writes keep it stable).  The compiled summary
        #: appliers, and the block JIT's inlined copy of their steady
        #: state, pair it with the ``_tags`` dict's identity to prove
        #: "the register file cannot have changed since my last
        #: application" without re-reading any register.  Every mutation
        #: path — :meth:`set`, :meth:`clear`, and the appliers' raw-dict
        #: writes — must maintain it.
        self.gen = 0

    def get(self, reg: str) -> TagSet:
        return self._tags.get(reg, EMPTY)

    def set(self, reg: str, tags: TagSet) -> None:
        if tags.is_empty():
            if self._tags.pop(reg, None) is not None:
                self.gen += 1
        else:
            prev = self._tags.get(reg)
            if prev is not tags and prev != tags:
                self._tags[reg] = tags
                self.gen += 1

    def clear(self) -> None:
        if self._tags:
            self._tags.clear()
            self.gen += 1

    def snapshot(self) -> Dict[str, TagSet]:
        """A shallow copy of the live entries (TagSets are immutable)."""
        return dict(self._tags)

    def copy(self) -> "ShadowRegisters":
        dup = ShadowRegisters()
        dup._tags = dict(self._tags)
        return dup

    def __len__(self) -> int:
        """Number of registers carrying a non-empty tag set."""
        return len(self._tags)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{r}={t}" for r, t in sorted(self._tags.items()))
        return f"ShadowRegisters({inner})"


class ShadowMemory:
    """Tag set per memory address (sparse, paged, copy-on-write).

    ``_pages`` maps page number (``addr >> PAGE_SHIFT``) to a dict of
    absolute address -> non-empty :class:`TagSet`.  ``_owned`` tracks
    which resident pages this instance may mutate in place: ``None``
    means *all of them* (the common, never-forked case, so the hot
    write path pays nothing); after :meth:`copy` both siblings share
    every page and clone one lazily on first write.
    """

    __slots__ = ("_pages", "_owned")

    def __init__(self) -> None:
        self._pages: Dict[int, Dict[int, TagSet]] = {}
        self._owned: Optional[Set[int]] = None

    # -- page plumbing -----------------------------------------------------
    def _writable(self, pno: int) -> Optional[Dict[int, TagSet]]:
        """The page dict for ``pno``, cloned first if shared."""
        page = self._pages.get(pno)
        if page is None:
            return None
        owned = self._owned
        if owned is not None and pno not in owned:
            page = dict(page)
            self._pages[pno] = page
            owned.add(pno)
        return page

    def _create(self, pno: int) -> Dict[int, TagSet]:
        page: Dict[int, TagSet] = {}
        self._pages[pno] = page
        if self._owned is not None:
            self._owned.add(pno)
        return page

    def _drop(self, pno: int) -> None:
        del self._pages[pno]
        if self._owned is not None:
            self._owned.discard(pno)

    def _page_range(self, start: int, length: int) -> Iterator[int]:
        """Resident page numbers intersecting [start, start+length),
        ascending — iterates whichever is smaller: the span or the
        resident set."""
        first = start >> PAGE_SHIFT
        last = (start + length - 1) >> PAGE_SHIFT
        pages = self._pages
        if last - first + 1 <= len(pages):
            for pno in range(first, last + 1):
                if pno in pages:
                    yield pno
        else:
            for pno in sorted(pages):
                if first <= pno <= last:
                    yield pno

    # -- cell access -------------------------------------------------------
    def get(self, addr: int) -> TagSet:
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return EMPTY
        return page.get(addr, EMPTY)

    def probe(self, addr: int) -> Optional[TagSet]:
        """The cell's tags, or ``None`` when untagged.

        The hot paths (batched dataflow, string scans) bind this once
        per block; two dict probes, no EMPTY sentinel allocation.
        """
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return None
        return page.get(addr)

    def page_live(self, addr: int) -> bool:
        """Could ``addr`` be tainted?  Page-granularity, conservative:
        True whenever the containing page is resident."""
        return (addr >> PAGE_SHIFT) in self._pages

    def set(self, addr: int, tags: TagSet) -> None:
        pno = addr >> PAGE_SHIFT
        if tags.is_empty():
            page = self._pages.get(pno)
            if page is None or addr not in page:
                # Nothing to clear: a shared page stays shared.
                return
            page = self._writable(pno)
            del page[addr]
            if not page:
                self._drop(pno)
            return
        page = self._pages.get(pno)
        if page is None:
            self._pages[pno] = {addr: tags}
            if self._owned is not None:
                self._owned.add(pno)
            return
        self._writable(pno)[addr] = tags

    # -- range operations ---------------------------------------------------
    def set_range(self, start: int, length: int, tags: TagSet) -> None:
        """Tag ``length`` consecutive cells starting at ``start``.

        Clearing (``tags`` empty) costs O(live cells in range): only
        resident pages are visited, fully-covered pages are dropped
        wholesale, and partially-covered ones clear live cells, not the
        whole span.
        """
        if length < 0:
            raise ValueError(f"negative length {length}")
        if length == 0:
            return
        end = start + length
        if tags.is_empty():
            for pno in list(self._page_range(start, length)):
                page_lo = pno << PAGE_SHIFT
                page_hi = page_lo + PAGE_SIZE
                if start <= page_lo and page_hi <= end:
                    self._drop(pno)
                    continue
                page = self._writable(pno)
                lo = max(start, page_lo)
                hi = min(end, page_hi)
                if len(page) <= hi - lo:
                    for addr in [a for a in page if lo <= a < hi]:
                        del page[addr]
                else:
                    for addr in range(lo, hi):
                        page.pop(addr, None)
                if not page:
                    self._drop(pno)
            return
        addr = start
        while addr < end:
            pno = addr >> PAGE_SHIFT
            hi = min(end, (pno + 1) << PAGE_SHIFT)
            page = self._writable(pno)
            if page is None:
                page = self._create(pno)
            for a in range(addr, hi):
                page[a] = tags
            addr = hi

    def union_of_range(self, start: int, length: int) -> TagSet:
        """Union of the tags over a region (the tag of the region's data).

        Early-exits when the store is empty or no resident page
        intersects the range; otherwise unions each distinct TagSet
        object of each intersecting page once, read from live cells or
        addresses, whichever is fewer.
        """
        if length <= 0 or not self._pages:
            return EMPTY
        result = EMPTY
        end = start + length
        for pno in self._page_range(start, length):
            page = self._pages[pno]
            page_lo = pno << PAGE_SHIFT
            lo = max(start, page_lo)
            hi = min(end, page_lo + PAGE_SIZE)
            if hi - lo == PAGE_SIZE:
                sets = list(page.values())
            elif len(page) <= hi - lo:
                sets = [ts for addr, ts in page.items() if lo <= addr < hi]
            else:
                sets = list(map(page.get, range(lo, hi)))
            for ts in _distinct(sets):
                if ts is not None:
                    result = result.union(ts)
        return result

    def clear(self) -> None:
        self._pages.clear()
        self._owned = None

    def live_cells(self) -> Iterator[Tuple[int, TagSet]]:
        """Iterate the non-empty entries (sorted by address)."""
        items: List[Tuple[int, TagSet]] = []
        for page in self._pages.values():
            items.extend(page.items())
        return iter(sorted(items))

    def copy(self) -> "ShadowMemory":
        """A copy-on-write twin: pages are shared until either side
        writes one (fork's shadow copy becomes O(#pages))."""
        dup = ShadowMemory()
        dup._pages = dict(self._pages)
        dup._owned = set()
        self._owned = set()
        return dup

    # -- stats --------------------------------------------------------------
    def page_stats(self) -> Dict[str, int]:
        """Resident-page footprint (telemetry's page gauges)."""
        return {
            "pages": len(self._pages),
            "cells": len(self),
            "page_size": PAGE_SIZE,
        }

    def __len__(self) -> int:
        return sum(len(page) for page in self._pages.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShadowMemory(<{len(self)} tagged cells in "
            f"{len(self._pages)} pages>)"
        )
