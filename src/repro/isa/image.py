"""Assembled binary images.

An :class:`Image` is the output of the assembler: position-independent text
and data plus a symbol table and relocation records.  The kernel's loader
(paper section 7.3.2, "Data flow & Loader events") places images at a base
address, applies relocations, and tags every loaded cell with the BINARY
data source — that is how "hardcoded" values become detectable.

Offsets use a single unified space: ``[0, text_size)`` addresses the
instructions, ``[text_size, size)`` addresses the data cells.

An image is immutable all the way down — its ``data`` and ``symbols``
are read-only mappings — and it is its own identity: it hashes and
compares by ``is``, so the object names the program.  Caches that key
on "which program is this" (the loader's relocation memo, the warm
block-cache store, the verdict-cache digest) key on the image itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import FrozenSet, Mapping, Tuple


@dataclass(frozen=True)
class TextRelocation:
    """Patch operand ``slot`` ('a' or 'b') of instruction ``index`` so its
    immediate value becomes the absolute address of ``symbol``."""

    index: int
    slot: str
    symbol: str


@dataclass(frozen=True)
class DataRelocation:
    """Patch the data cell at ``offset`` (unified-space offset) so it holds
    the absolute address of ``symbol``."""

    offset: int
    symbol: str


@dataclass(frozen=True, eq=False)
class Image:
    """One assembled unit (an executable or a shared object)."""

    #: Path-like identity, e.g. ``/bin/ls`` or ``libc.so``.  Warnings quote
    #: this name ("originated from BINARY(...)"), so it should look like the
    #: on-disk path of the binary.
    name: str
    text: Tuple["Instruction", ...]  # noqa: F821 - forward ref, see isa.instructions
    #: Initialized data cells, keyed by unified-space offset.
    data: Mapping[int, int] = field(default_factory=dict)
    #: Total data extent (includes .space gaps beyond the initialized cells).
    data_size: int = 0
    #: Symbol table: name -> unified-space offset.
    symbols: Mapping[str, int] = field(default_factory=dict)
    text_relocations: Tuple[TextRelocation, ...] = ()
    data_relocations: Tuple[DataRelocation, ...] = ()
    #: Basic-block leader offsets within text.
    bb_leaders: FrozenSet[int] = frozenset()
    #: Symbols referenced but not defined here (satisfied by shared objects).
    externs: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        # Read-only views of private copies: no caller keeps a handle
        # through which the image could change.
        object.__setattr__(self, "data", MappingProxyType(dict(self.data)))
        object.__setattr__(
            self, "symbols", MappingProxyType(dict(self.symbols))
        )

    @property
    def text_size(self) -> int:
        return len(self.text)

    @property
    def size(self) -> int:
        return self.text_size + self.data_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Image({self.name!r}, text={self.text_size}, "
            f"data={self.data_size}, symbols={len(self.symbols)})"
        )
