"""Per-cell reference readers of guest memory and its shadow tags.

The kernel and the monitor read a guest string, a written buffer and
their tags in one pass: :meth:`FlatMemory.read_cstring` and
:meth:`FlatMemory.read_bytes` map the cell dict in C,
:meth:`ShadowMemory.union_of_range` unions each distinct tag-set object
of a page once, and a syscall path's origin is the union over
``len(path)`` cells.  These are the cell-by-cell definitions they must
equal, kept only as differential oracles.
"""

from __future__ import annotations

from typing import List

from repro.isa.memory import MAX_CSTRING, FlatMemory, MemoryFault
from repro.taint.shadow import ShadowMemory
from repro.taint.tags import EMPTY, TagSet


def read_cstring(memory: FlatMemory, addr: int,
                 max_len: int = MAX_CSTRING) -> str:
    """One cell at a time: masked into the Unicode range, surrogates
    replaced by U+FFFD, MemoryFault when no NUL lies in the window."""
    chars: List[str] = []
    for i in range(max_len):
        value = memory.cells.get(addr + i, 0)
        if value == 0:
            return "".join(chars)
        code = value & 0x10FFFF
        if 0xD800 <= code <= 0xDFFF:
            code = 0xFFFD
        chars.append(chr(code))
    raise MemoryFault(
        f"unterminated string at {addr:#x} (>{max_len} cells)"
    )


def read_bytes(memory: FlatMemory, addr: int, length: int) -> bytes:
    """Each cell's low byte."""
    return bytes(memory.read(addr + i) & 0xFF for i in range(length))


def union_of_range(shadow: ShadowMemory, start: int, length: int) -> TagSet:
    """The union of every cell's tags, address by address."""
    result = EMPTY
    for addr in range(start, start + length):
        result = result.union(shadow.get(addr))
    return result


def string_tags(memory: FlatMemory, shadow: ShadowMemory, addr: int,
                max_len: int = MAX_CSTRING) -> TagSet:
    """The union of the tags of the string's cells before its NUL (the
    whole window when it has none)."""
    tags = EMPTY
    for i in range(max_len):
        if memory.cells.get(addr + i, 0) == 0:
            break
        tags = tags.union(shadow.get(addr + i))
    return tags
