"""Flat per-process address space.

Cells are sparse: a read of a never-written address returns 0 (BSS / fresh
stack semantics), so the loader and programs never need to pre-zero regions.
Code lives in a parallel map from address to :class:`Instruction`; executing
an address with no instruction mapped is a fault.

Strings are stored one character code per cell, NUL-terminated — helpers for
reading and writing them live here because the kernel, Harrier, and the
guest-program builders all need them.
"""

from __future__ import annotations

from itertools import repeat, takewhile
from typing import Dict, Iterable

from repro.isa.instructions import Instruction


class MemoryFault(Exception):
    """Raised when execution touches an unmapped code address."""


#: Longest C string the helpers will scan before declaring it unterminated.
MAX_CSTRING = 4096

#: Default layout constants (one address unit == one cell).
STACK_TOP = 0x7F_0000
HEAP_BASE = 0x40_0000
APP_BASE = 0x1000
LIBRARY_BASE = 0x10_0000
LIBRARY_STRIDE = 0x2_0000


_BYTE = 0xFF


def _char(value: int) -> str:
    """One string cell as a character: masked into the Unicode range,
    a surrogate replaced by U+FFFD."""
    code = value & 0x10FFFF
    if 0xD800 <= code <= 0xDFFF:
        code = 0xFFFD
    return chr(code)


class FlatMemory:
    """Sparse flat memory: data cells plus an instruction map."""

    __slots__ = ("cells", "code")

    def __init__(self) -> None:
        self.cells: Dict[int, int] = {}
        self.code: Dict[int, Instruction] = {}

    # -- data -------------------------------------------------------------
    def read(self, addr: int) -> int:
        return self.cells.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self.cells[addr] = int(value)

    # -- strings ----------------------------------------------------------
    def read_cstring(self, addr: int, max_len: int = MAX_CSTRING) -> str:
        """Read a NUL-terminated string starting at ``addr``.

        Cell values are masked into the Unicode range; surrogate code
        points (U+D800-U+DFFF, which ``chr`` accepts but no string may
        carry through encoding) become U+FFFD instead of letting a guest
        crash the kernel's string decoding with a ValueError.

        The cells are read in one pass; a string of byte-sized codes
        (every path and host name a guest builds) decodes without a
        per-character step.
        """
        codes = list(takewhile(bool, map(
            self.cells.get, range(addr, addr + max_len), repeat(0)
        )))
        if len(codes) >= max_len:
            raise MemoryFault(
                f"unterminated string at {addr:#x} (>{max_len} cells)"
            )
        try:
            return bytes(codes).decode("latin-1")
        except ValueError:
            return "".join(map(_char, codes))

    def write_cstring(self, addr: int, text: str) -> int:
        """Write ``text`` NUL-terminated; returns cells written."""
        for i, ch in enumerate(text):
            self.write(addr + i, ord(ch))
        self.write(addr + len(text), 0)
        return len(text) + 1

    def read_bytes(self, addr: int, length: int) -> bytes:
        """``length`` cells from ``addr``, each masked to its low byte."""
        return bytes(map(_BYTE.__and__, map(
            self.cells.get, range(addr, addr + length), repeat(0)
        )))

    def write_bytes(self, addr: int, data: bytes) -> int:
        for i, byte in enumerate(data):
            self.write(addr + i, byte)
        return len(data)

    # -- code -------------------------------------------------------------
    def map_code(self, base: int, instructions: Iterable[Instruction]) -> int:
        count = 0
        for i, instr in enumerate(instructions):
            addr = base + i
            if addr in self.code:
                raise MemoryFault(f"code overlap at {addr:#x}")
            self.code[addr] = instr
            count += 1
        return count

    # -- lifecycle ----------------------------------------------------------
    def copy(self) -> "FlatMemory":
        """Fork-time duplicate (instructions are immutable and shared)."""
        dup = FlatMemory()
        dup.cells = dict(self.cells)
        dup.code = dict(self.code)
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlatMemory(<{len(self.cells)} data cells, "
            f"{len(self.code)} instructions>)"
        )
