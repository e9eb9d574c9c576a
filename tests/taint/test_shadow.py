"""Tests for shadow register/memory tag stores."""

from hypothesis import given
from hypothesis import strategies as st

from repro.taint import EMPTY, DataSource, ShadowMemory, ShadowRegisters, TagSet


FILE_A = TagSet.of(DataSource.FILE, "/a")
SOCK = TagSet.of(DataSource.SOCKET, "h:1")


class TestShadowRegisters:
    def test_default_empty(self):
        regs = ShadowRegisters()
        assert regs.get("eax") is EMPTY

    def test_set_get(self):
        regs = ShadowRegisters()
        regs.set("eax", FILE_A)
        assert regs.get("eax") == FILE_A

    def test_setting_empty_removes_entry(self):
        regs = ShadowRegisters()
        regs.set("eax", FILE_A)
        regs.set("eax", EMPTY)
        assert regs.get("eax") is EMPTY
        assert regs.snapshot() == {}

    def test_clear(self):
        regs = ShadowRegisters()
        regs.set("ebx", SOCK)
        regs.clear()
        assert regs.get("ebx") is EMPTY

    def test_copy_is_independent(self):
        regs = ShadowRegisters()
        regs.set("eax", FILE_A)
        dup = regs.copy()
        dup.set("eax", SOCK)
        assert regs.get("eax") == FILE_A
        assert dup.get("eax") == SOCK


class TestShadowMemory:
    def test_default_empty(self):
        mem = ShadowMemory()
        assert mem.get(0x1000) is EMPTY
        assert len(mem) == 0

    def test_set_range_and_union(self):
        mem = ShadowMemory()
        mem.set_range(10, 5, FILE_A)
        mem.set(12, SOCK)
        combined = mem.union_of_range(10, 5)
        assert combined.has_source(DataSource.FILE)
        assert combined.has_source(DataSource.SOCKET)

    def test_set_range_negative_length(self):
        import pytest

        with pytest.raises(ValueError):
            ShadowMemory().set_range(0, -1, FILE_A)

    def test_set_range_empty_clears(self):
        mem = ShadowMemory()
        mem.set_range(0, 4, FILE_A)
        mem.set_range(0, 4, EMPTY)
        assert len(mem) == 0

    def test_get_range(self):
        mem = ShadowMemory()
        mem.set(1, FILE_A)
        assert mem.get_range(0, 3) == (EMPTY, FILE_A, EMPTY)

    def test_live_cells_sorted(self):
        mem = ShadowMemory()
        mem.set(5, FILE_A)
        mem.set(1, SOCK)
        assert [a for a, _ in mem.live_cells()] == [1, 5]

    def test_copy_is_independent(self):
        mem = ShadowMemory()
        mem.set(1, FILE_A)
        dup = mem.copy()
        dup.set(1, SOCK)
        assert mem.get(1) == FILE_A

    @given(st.integers(0, 50), st.integers(0, 20))
    def test_union_of_untouched_range_is_empty(self, start, length):
        mem = ShadowMemory()
        assert mem.union_of_range(start, length) is EMPTY
