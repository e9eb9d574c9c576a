"""Multi-source taint tags.

The paper (section 5.1) rejects a single "taint bit" in favour of rich
per-location tags.  Every register and memory cell carries a *set* of
:class:`Tag` values, where each tag records a :class:`DataSource` type and
the name of the concrete resource the data came from (a file path, a socket
address, a binary image path, ...).

``TagSet`` is immutable and hash-consed-ish (empty set is a singleton) so it
can be shared freely between shadow-memory cells without aliasing bugs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple


class DataSource(enum.Enum):
    """The resource types the policy distinguishes (paper section 5.1)."""

    USER_INPUT = "USER_INPUT"
    FILE = "FILE"
    SOCKET = "SOCKET"
    BINARY = "BINARY"
    HARDWARE = "HARDWARE"
    #: The paper (footnote 4) notes that a prototype needs an UNKNOWN source
    #: for locations no rule has tagged yet.
    UNKNOWN = "UNKNOWN"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Tag:
    """One provenance record: *what kind* of resource and *which one*.

    ``name`` is ``None`` for sources that have no meaningful identifier
    (USER_INPUT from stdin, HARDWARE, UNKNOWN).
    """

    source: DataSource
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.source, DataSource):
            raise TypeError(f"source must be a DataSource, got {self.source!r}")

    def sort_key(self) -> tuple:
        return (self.source.value, self.name or "")

    def __str__(self) -> str:
        if self.name is None:
            return self.source.value
        return f"{self.source.value}({self.name})"


class TagSet:
    """An immutable set of :class:`Tag` values.

    Union is the fundamental operation: the paper's dataflow rule for
    ``add %ebx, %eax`` is that the destination's tag set becomes the union
    of both operand tag sets (section 7.3.1).
    """

    __slots__ = ("_tags", "_hash", "_sorted")

    _EMPTY: "TagSet" = None  # type: ignore[assignment]

    def __init__(self, tags: Iterable[Tag] = ()) -> None:
        frozen = frozenset(tags)
        for tag in frozen:
            if not isinstance(tag, Tag):
                raise TypeError(f"TagSet elements must be Tags, got {tag!r}")
        object.__setattr__(self, "_tags", frozen)
        object.__setattr__(self, "_hash", None)
        #: The tags in :meth:`Tag.sort_key` order, built on first
        #: iteration (provenance and the disk format iterate the same
        #: sets again and again).
        object.__setattr__(self, "_sorted", None)

    # -- constructors ----------------------------------------------------
    @classmethod
    def empty(cls) -> "TagSet":
        """The canonical empty tag set (a singleton)."""
        if cls._EMPTY is None:
            cls._EMPTY = cls(())
        return cls._EMPTY

    @classmethod
    def of(cls, source: DataSource, name: Optional[str] = None) -> "TagSet":
        """A tag set holding exactly one tag."""
        return cls((Tag(source, name),))

    # -- set algebra ------------------------------------------------------
    @property
    def tags(self) -> FrozenSet[Tag]:
        return self._tags

    def union(self, *others: "TagSet") -> "TagSet":
        """Union of this set with any number of others."""
        if len(others) == 1:
            # The common case (a string or buffer whose cells share one
            # set): an operand that adds nothing builds nothing.
            other = others[0]
            if other is self:
                return self
            if not isinstance(other, TagSet):
                raise TypeError(f"can only union TagSets, got {other!r}")
            if other._tags <= self._tags:
                return self
            if self._tags <= other._tags:
                return other
            return TagSet(self._tags | other._tags)
        merged = set(self._tags)
        changed = False
        for other in others:
            if not isinstance(other, TagSet):
                raise TypeError(f"can only union TagSets, got {other!r}")
            if not other._tags <= merged:
                merged.update(other._tags)
                changed = True
        if not changed:
            return self
        return TagSet(merged)

    # -- queries ----------------------------------------------------------
    def has_source(self, source: DataSource) -> bool:
        return any(t.source is source for t in self._tags)

    def names_for(self, source: DataSource) -> Tuple[str, ...]:
        """All resource names recorded for a given source type, sorted."""
        return tuple(
            sorted(t.name for t in self._tags if t.source is source and t.name)
        )

    def sources(self) -> FrozenSet[DataSource]:
        return frozenset(t.source for t in self._tags)

    def is_empty(self) -> bool:
        return not self._tags

    # -- dunder -----------------------------------------------------------
    def __iter__(self) -> Iterator[Tag]:
        ordered = self._sorted
        if ordered is None:
            ordered = tuple(sorted(self._tags, key=Tag.sort_key))
            object.__setattr__(self, "_sorted", ordered)
        return iter(ordered)

    def __len__(self) -> int:
        return len(self._tags)

    def __contains__(self, tag: Tag) -> bool:
        return tag in self._tags

    def __bool__(self) -> bool:
        return bool(self._tags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagSet):
            return NotImplemented
        return self._tags == other._tags

    def __hash__(self) -> int:
        # Cached: sets appear in memo keys that are hashed constantly.
        h = self._hash
        if h is None:
            h = hash(self._tags)
            object.__setattr__(self, "_hash", h)
        return h

    def __or__(self, other: "TagSet") -> "TagSet":
        return self.union(other)

    def __repr__(self) -> str:
        inner = ", ".join(str(t) for t in self)
        return f"TagSet({{{inner}}})"


#: Convenience constant used throughout the shadow state.
EMPTY = TagSet.empty()


class TagSetInterner:
    """Hash-consing table + identity-keyed union memo for TagSets.

    The batched dataflow path performs the same unions over and over
    (every iteration of a guest loop replays the same block's
    templates over largely unchanged shadow state).  Interning makes
    equal TagSets *identical* objects, and the union memo keyed by
    ``(id(a), id(b))`` then turns repeated unions into one dict probe —
    no frozenset allocation, no subset test.

    The memo value stores ``(a, b, result)`` with strong references and
    verifies both operands by identity before trusting a hit, so a
    recycled ``id()`` can never alias a dead key to a wrong result.  The
    memo is bounded: at ``max_memo`` entries it is cleared wholesale
    (the steady-state working set re-fills in a few blocks).
    """

    __slots__ = ("_table", "_memo", "max_memo")

    def __init__(self, max_memo: int = 8192) -> None:
        self._table: dict = {EMPTY: EMPTY}
        self._memo: dict = {}
        self.max_memo = max_memo

    def intern(self, tagset: TagSet) -> TagSet:
        """The canonical object equal to ``tagset``."""
        canonical = self._table.get(tagset)
        if canonical is None:
            self._table[tagset] = tagset
            canonical = tagset
        return canonical

    def union(self, a: TagSet, b: TagSet) -> TagSet:
        """``a | b``, interned and memoized.

        Equal to ``a.union(b)`` always; additionally, when both operands
        are interned the result is the canonical object for its value.
        """
        if a is b or not b._tags:
            return a
        if not a._tags:
            return self.intern(b)
        memo = self._memo
        key = (id(a), id(b))
        entry = memo.get(key)
        if entry is not None and entry[0] is a and entry[1] is b:
            return entry[2]
        result = self.intern(a.union(b))
        if len(memo) >= self.max_memo:
            memo.clear()
        memo[key] = (a, b, result)
        return result

    def __len__(self) -> int:
        return len(self._table)
