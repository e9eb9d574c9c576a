"""Fact templates and facts (the CLIPS ``deftemplate``/``assert`` model).

A fact is a template plus a *record*, and the template names, for each
slot, the reader that takes the slot's value from the record.  Every
consumer — alpha tests, join keys, pattern matching, rendering — reads
a slot as ``template.readers[slot](record)``, whatever the record is.

* A generic template's record is the dict :meth:`Template.make` builds,
  read slot by slot with ``itemgetter``.  A slot may be declared *multi*
  (CLIPS multislot), in which case ``make`` stores a tuple.
* A template whose slots name their own readers reads some other record
  in place: Secpert's templates read a Harrier event directly, so the
  event *is* the fact's record (paper section 6.1, appendix A.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple


class TemplateError(Exception):
    """Slot mismatch when building or reading facts."""


@dataclass(frozen=True)
class SlotSpec:
    name: str
    multi: bool = False
    default: Any = None
    #: Takes the slot's value from a fact's record; None reads the
    #: dict :meth:`Template.make` builds.
    read: Optional[Callable[[Any], Any]] = None

    def normalize(self, value: Any) -> Any:
        if self.multi:
            if value is None:
                return ()
            if isinstance(value, (list, tuple, set, frozenset)):
                return tuple(value)
            return (value,)
        return value


class Template:
    """A named fact shape."""

    def __init__(self, name: str, slots: Tuple[SlotSpec, ...]) -> None:
        self.name = name
        self.slots: Dict[str, SlotSpec] = {s.name: s for s in slots}
        if len(self.slots) != len(slots):
            raise TemplateError(f"duplicate slot in template {name!r}")
        #: Slot name -> reader of that slot's value from a record, in
        #: slot order.
        self.readers: Dict[str, Callable[[Any], Any]] = {
            s.name: s.read or itemgetter(s.name) for s in slots
        }
        # make(): every slot's default in slot order, then the multislots
        # whose values need normalizing.
        self._defaults = {s.name: s.default for s in slots}
        self._multi = tuple(s for s in slots if s.multi)

    @classmethod
    def define(cls, name: str, *slot_names: str, multi: Tuple[str, ...] = ()
               ) -> "Template":
        """Shorthand: ``Template.define("t", "a", "b", multi=("c",))``."""
        specs = [SlotSpec(s) for s in slot_names]
        specs.extend(SlotSpec(s, multi=True) for s in multi)
        return cls(name, tuple(specs))

    def make(self, **values: Any) -> "Fact":
        """A fact whose record is a dict of these slot values (for a
        template whose slots read a dict)."""
        if not values.keys() <= self._defaults.keys():
            unknown = set(values) - set(self.slots)
            raise TemplateError(
                f"template {self.name!r} has no slot(s) {sorted(unknown)}"
            )
        record = {**self._defaults, **values}
        for slot in self._multi:
            record[slot.name] = slot.normalize(record[slot.name])
        return Fact(self, record)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Template({self.name!r}, slots={list(self.slots)})"


class Fact:
    """One working-memory element: a template and the record it reads.

    ``fact_id`` and ``recency`` are stamped by the engine at assert time;
    they live here, not on the record, because one record may be
    asserted into more than one engine.
    """

    __slots__ = ("template", "record", "fact_id", "recency")

    def __init__(self, template: Template, record: Any) -> None:
        self.template = template
        self.record = record
        self.fact_id: Optional[int] = None
        self.recency: int = 0

    @property
    def name(self) -> str:
        return self.template.name

    def get(self, slot: str) -> Any:
        read = self.template.readers.get(slot)
        if read is None:
            raise TemplateError(
                f"template {self.name!r} has no slot {slot!r}"
            )
        return read(self.record)

    def __getitem__(self, slot: str) -> Any:
        return self.get(slot)

    def items(self) -> List[Tuple[str, Any]]:
        """``(slot, value)`` for every slot, in slot order."""
        record = self.record
        return [(slot, read(record))
                for slot, read in self.template.readers.items()]

    def __repr__(self) -> str:
        inner = " ".join(f"({k} {v!r})" for k, v in sorted(self.items()))
        tag = f"f-{self.fact_id}" if self.fact_id is not None else "f-?"
        return f"<{tag} ({self.name} {inner})>"
