"""One-pass readers equal their per-cell references (tests/oracles).

Guest strings and buffers are read in one pass over the cell dict, a
range's tags fold each distinct tag-set object once, and a syscall
path's origin is taken over ``len(path)`` cells instead of a second
scan for the NUL.  Each is checked against the cell-by-cell definition
over values a guest can store: surrogates, code points at or above
0x110000, negative and huge values, unterminated strings, ranges on one
page, across pages, beyond four pages and over holes.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harrier.dataflow import InstructionDataFlow
from repro.harrier.state import ProcessShadow
from repro.isa.memory import FlatMemory, MemoryFault
from repro.taint.shadow import PAGE_SIZE, ShadowMemory
from repro.taint.tags import DataSource, Tag, TagSet
from tests.oracles import readers

BASE = 0x1000

#: Cell values a guest can write: NUL, ASCII, Latin-1, wide, surrogates,
#: at or beyond the Unicode range, negative and huge.
CELL = st.one_of(
    st.just(0),
    st.integers(1, 0x7F),
    st.integers(0x80, 0xFF),
    st.integers(0x100, 0xD7FF),
    st.integers(0xD800, 0xDFFF),
    st.integers(0x10FFF0, 0x110010),
    st.integers(0x110000, 1 << 40),
    st.integers(-(1 << 40), -1),
)
#: Mostly printable, so strings run long before their NUL.
STRING_CELL = st.one_of(st.integers(0x20, 0x7E), CELL)


def _memory(values):
    memory = FlatMemory()
    for i, value in enumerate(values):
        memory.cells[BASE + i] = value
    return memory


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except MemoryFault as exc:
        return ("fault", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.lists(STRING_CELL, max_size=80), st.integers(-2, 90))
def test_read_cstring_equals_per_cell(values, max_len):
    memory = _memory(values)
    assert _outcome(memory.read_cstring, BASE, max_len) == \
        _outcome(readers.read_cstring, memory, BASE, max_len)


def test_read_cstring_edge_values():
    memory = _memory([0x41, 0xD800, 0xDFFF, 0x110041, -1, 0x10FFFF, 0])
    text = memory.read_cstring(BASE)
    assert text == readers.read_cstring(memory, BASE)
    assert text == "A��\U00100041\U0010ffff\U0010ffff"


@settings(max_examples=300, deadline=None)
@given(st.lists(CELL, max_size=80), st.integers(-3, 100),
       st.integers(-4, 4))
def test_read_bytes_equals_per_cell(values, length, offset):
    memory = _memory(values)
    assert memory.read_bytes(BASE + offset, length) == \
        readers.read_bytes(memory, BASE + offset, length)


#: A few tag sets, including two equal but distinct objects.
_A = TagSet.of(DataSource.BINARY, "/bin/x")
_B = TagSet.of(DataSource.FILE, "/etc/passwd")
_POOL = (
    _A, _B, _A.union(_B), TagSet.of(DataSource.USER_INPUT),
    TagSet([Tag(DataSource.BINARY, "/bin/x")]),
)

#: (start cell, run length, pool index): runs of shared tag sets, the
#: way reads and stores tag buffers.
RUNS = st.lists(
    st.tuples(st.integers(0, 6 * PAGE_SIZE), st.integers(1, 2 * PAGE_SIZE),
              st.integers(0, len(_POOL) - 1)),
    max_size=8,
)


def _shadow(runs, holes):
    shadow = ShadowMemory()
    for start, length, which in runs:
        shadow.set_range(BASE + start, length, _POOL[which])
    for hole in holes:
        shadow.set_range(BASE + hole, 3, TagSet.empty())
    return shadow


@settings(max_examples=300, deadline=None)
@given(RUNS, st.lists(st.integers(0, 7 * PAGE_SIZE), max_size=6),
       st.integers(-PAGE_SIZE, 7 * PAGE_SIZE), st.integers(-2, 6 * PAGE_SIZE))
def test_union_of_range_equals_per_cell(runs, holes, start, length):
    """One page, across pages, beyond four pages, over holes."""
    shadow = _shadow(runs, holes)
    assert shadow.union_of_range(BASE + start, length) == \
        readers.union_of_range(shadow, BASE + start, length)


def test_union_of_range_named_cases():
    shadow = _shadow([(0, 5 * PAGE_SIZE, 0), (PAGE_SIZE + 3, 4, 1)],
                     [2 * PAGE_SIZE, 3 * PAGE_SIZE + 60])
    for start, length in ((1, 20), (PAGE_SIZE - 4, 9),
                          (0, 5 * PAGE_SIZE), (5, 6 * PAGE_SIZE),
                          (2 * PAGE_SIZE - 1, 5)):
        assert shadow.union_of_range(BASE + start, length) == \
            readers.union_of_range(shadow, BASE + start, length)


@settings(max_examples=300, deadline=None)
@given(st.lists(STRING_CELL, max_size=80), RUNS, st.integers(1, 90))
def test_path_origin_by_length_equals_the_nul_scan(values, runs, max_len):
    """A decoded path's origin (tags over ``len(path)`` cells) is the
    old scan for its NUL; the production scan (kept for host names)
    equals it too, unterminated strings included."""
    memory = _memory(values)
    shadow = ProcessShadow()
    shadow.memory = _shadow(runs, ())
    scan = readers.string_tags(memory, shadow.memory, BASE, max_len)
    proc = SimpleNamespace(memory=memory)
    assert InstructionDataFlow.string_tags(proc, shadow, BASE,
                                           max_len) == scan
    try:
        path = memory.read_cstring(BASE, max_len)
    except MemoryFault:
        return
    assert shadow.memory.union_of_range(BASE, len(path)) == scan

