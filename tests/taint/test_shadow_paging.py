"""Paging edge cases for the sparse shadow memory.

The paged store's contract is "indistinguishable from a flat
addr -> TagSet dict, except faster": these tests pin the places where
page bookkeeping could leak — ranges straddling page boundaries, pages
shared copy-on-write across fork, and the no-empty-page-resident
invariant that makes page absence mean "clean".
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.taint import (
    EMPTY,
    PAGE_SIZE,
    DataSource,
    ShadowMemory,
    TagSet,
)
from tests.oracles.readers import cell_tags

FILE_A = TagSet.of(DataSource.FILE, "/a")
SOCK = TagSet.of(DataSource.SOCKET, "h:1")

#: An address near the end of page 1, so small ranges straddle into page 2.
EDGE = 2 * PAGE_SIZE - 2


class TestPageBoundaries:
    def test_set_range_straddles_pages(self):
        mem = ShadowMemory()
        mem.set_range(EDGE, 4, FILE_A)
        assert [a for a, _ in mem.live_cells()] == [
            EDGE, EDGE + 1, EDGE + 2, EDGE + 3
        ]
        assert mem.page_stats()["pages"] == 2

    def test_union_of_range_straddles_pages(self):
        mem = ShadowMemory()
        mem.set(EDGE, FILE_A)        # last-but-one cell of page 1
        mem.set(EDGE + 3, SOCK)      # second cell of page 2
        combined = mem.union_of_range(EDGE, 4)
        assert combined.has_source(DataSource.FILE)
        assert combined.has_source(DataSource.SOCKET)
        # Range clipped to one side sees only that side.
        assert mem.union_of_range(EDGE, 2) == FILE_A
        assert mem.union_of_range(2 * PAGE_SIZE, 4) == SOCK

    def test_get_straddles_pages(self):
        mem = ShadowMemory()
        mem.set(EDGE + 1, FILE_A)
        mem.set(EDGE + 2, SOCK)
        assert [mem.get(a) for a in range(EDGE, EDGE + 4)] == [
            EMPTY, FILE_A, SOCK, EMPTY
        ]

    def test_clear_range_straddling_drops_only_covered_cells(self):
        mem = ShadowMemory()
        mem.set_range(EDGE - 2, 8, FILE_A)
        mem.set_range(EDGE, 4, EMPTY)
        assert [a for a, _ in mem.live_cells()] == [
            EDGE - 2, EDGE - 1, EDGE + 4, EDGE + 5
        ]

    def test_clear_covering_whole_page_drops_it_wholesale(self):
        mem = ShadowMemory()
        mem.set_range(0, 3 * PAGE_SIZE, FILE_A)
        assert mem.page_stats()["pages"] == 3
        # Covers all of page 1 plus fragments of pages 0 and 2.
        mem.set_range(PAGE_SIZE - 1, PAGE_SIZE + 2, EMPTY)
        assert mem.page_stats()["pages"] == 2
        assert mem.get(PAGE_SIZE - 2) == FILE_A
        assert mem.get(PAGE_SIZE - 1) is EMPTY
        assert mem.get(2 * PAGE_SIZE) is EMPTY
        assert mem.get(2 * PAGE_SIZE + 1) == FILE_A


class TestSparsity:
    def test_empty_store_has_no_pages(self):
        mem = ShadowMemory()
        assert mem.page_stats() == {
            "pages": 0, "cells": 0, "page_size": PAGE_SIZE,
        }

    def test_empty_write_restores_page_absence(self):
        mem = ShadowMemory()
        mem.set(100, FILE_A)
        assert mem.page_live(100)
        mem.set(100, EMPTY)
        assert not mem.page_live(100)
        assert mem.page_stats()["pages"] == 0

    def test_range_clear_restores_page_absence(self):
        mem = ShadowMemory()
        mem.set_range(EDGE, 4, FILE_A)
        mem.set_range(EDGE, 4, EMPTY)
        assert mem.page_stats()["pages"] == 0
        assert len(mem) == 0

    def test_empty_write_to_absent_page_stays_absent(self):
        mem = ShadowMemory()
        mem.set(100, EMPTY)
        mem.set_range(0, 10 * PAGE_SIZE, EMPTY)
        assert mem.page_stats()["pages"] == 0

    def test_page_live_is_page_granular(self):
        mem = ShadowMemory()
        mem.set(0, FILE_A)
        # Conservative: any address in a resident page reads as "maybe".
        assert mem.page_live(PAGE_SIZE - 1)
        assert not mem.page_live(PAGE_SIZE)

    def test_probe_distinguishes_untagged(self):
        mem = ShadowMemory()
        mem.set(5, FILE_A)
        assert mem.probe(5) == FILE_A
        assert mem.probe(6) is None          # resident page, clean cell
        assert mem.probe(PAGE_SIZE) is None  # absent page

    def test_union_of_range_early_exit_on_absent_pages(self):
        mem = ShadowMemory()
        mem.set(0, FILE_A)
        # Far-away range: no resident page intersects it.
        assert mem.union_of_range(100 * PAGE_SIZE, 10_000) is EMPTY


class TestCopyOnWrite:
    def test_fork_shares_then_diverges_child_side(self):
        parent = ShadowMemory()
        parent.set(10, FILE_A)
        child = parent.copy()
        child.set(10, SOCK)
        assert parent.get(10) == FILE_A
        assert child.get(10) == SOCK

    def test_fork_shares_then_diverges_parent_side(self):
        parent = ShadowMemory()
        parent.set(10, FILE_A)
        child = parent.copy()
        parent.set(11, SOCK)
        assert child.get(11) is EMPTY
        assert parent.get(11) == SOCK
        assert child.get(10) == FILE_A

    def test_fork_clear_does_not_leak(self):
        parent = ShadowMemory()
        parent.set_range(0, 4, FILE_A)
        child = parent.copy()
        child.set_range(0, 4, EMPTY)
        assert len(child) == 0
        assert len(parent) == 4

    def test_grandchild_chain(self):
        a = ShadowMemory()
        a.set(0, FILE_A)
        b = a.copy()
        c = b.copy()
        c.set(0, SOCK)
        b.set(1, SOCK)
        assert a.get(0) == FILE_A and a.get(1) is EMPTY
        assert b.get(0) == FILE_A and b.get(1) == SOCK
        assert c.get(0) == SOCK and c.get(1) is EMPTY

    def test_fork_empty_store_over_an_untagged_cell_keeps_sharing(self):
        parent = ShadowMemory()
        parent.set(10, FILE_A)
        child = parent.copy()
        child.set(11, EMPTY)    # nothing to clear
        assert child._pages[0] is parent._pages[0]
        child.set(10, EMPTY)    # clears: the child's page is its own
        assert child._pages.get(0) is None
        assert parent.get(10) == FILE_A

    def test_fork_then_new_page_is_owned(self):
        parent = ShadowMemory()
        child = parent.copy()
        child.set(0, FILE_A)
        child.set(1, SOCK)  # second write must not re-clone
        assert parent.get(0) is EMPTY
        assert child.get(1) == SOCK


def _reference_ops():
    """(op, args) programs driving paged store vs flat-dict model."""
    addr = st.integers(0, 4 * PAGE_SIZE)
    length = st.integers(0, 2 * PAGE_SIZE + 3)
    tags = st.sampled_from([EMPTY, FILE_A, SOCK])
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), addr, tags),
            st.tuples(st.just("set_range"), addr, length, tags),
            st.tuples(st.just("copy"), st.just(None)),
        ),
        max_size=12,
    )


@given(_reference_ops(), st.integers(0, 4 * PAGE_SIZE), st.integers(0, 150))
def test_matches_flat_dict_model(ops, q_start, q_length):
    mem = ShadowMemory()
    model = {}
    for op in ops:
        if op[0] == "set":
            _, addr, ts = op
            mem.set(addr, ts)
            if ts.is_empty():
                model.pop(addr, None)
            else:
                model[addr] = ts
        elif op[0] == "set_range":
            _, addr, length, ts = op
            mem.set_range(addr, length, ts)
            for a in range(addr, addr + length):
                if ts.is_empty():
                    model.pop(a, None)
                else:
                    model[a] = ts
        else:
            mem = mem.copy()  # keep exercising post-fork mutation
            model = dict(model)
    assert cell_tags(mem) == model
    expected = EMPTY
    for a in range(q_start, q_start + q_length):
        expected = expected.union(model.get(a, EMPTY))
    assert mem.union_of_range(q_start, q_length) == expected
    assert [mem.get(a) for a in range(q_start, q_start + q_length)] == [
        model.get(a, EMPTY) for a in range(q_start, q_start + q_length)
    ]
