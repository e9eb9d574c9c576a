"""Fact templates and facts (the CLIPS ``deftemplate``/``assert`` model).

Facts are immutable bags of named slot values.  A slot may be declared
*multi* (CLIPS multislot), in which case its value is always a tuple —
Secpert uses multislots for resource-origin names/types because a value
can derive from several data sources at once (paper appendix A.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple


class TemplateError(Exception):
    """Slot mismatch when building or reading facts."""


@dataclass(frozen=True)
class SlotSpec:
    name: str
    multi: bool = False
    default: Any = None

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
        if not values.keys() <= self._defaults.keys():
            unknown = set(values) - set(self.slots)
            raise TemplateError(
                f"template {self.name!r} has no slot(s) {sorted(unknown)}"
            )
        normalized = {**self._defaults, **values}
        for slot in self._multi:
            normalized[slot.name] = slot.normalize(normalized[slot.name])
        return Fact(self, normalized)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Template({self.name!r}, slots={list(self.slots)})"


class Fact:
    """One working-memory element.

    ``fact_id`` and ``recency`` are stamped by the engine at assert time.
    """

    __slots__ = ("template", "values", "fact_id", "recency")

    def __init__(self, template: Template, values: Mapping[str, Any]) -> None:
        self.template = template
        self.values: Dict[str, Any] = dict(values)
        self.fact_id: Optional[int] = None
        self.recency: int = 0

    @property
    def name(self) -> str:
        return self.template.name

    def get(self, slot: str) -> Any:
        if slot not in self.template.slots:
            raise TemplateError(
                f"template {self.name!r} has no slot {slot!r}"
            )
        return self.values[slot]

    def __getitem__(self, slot: str) -> Any:
        return self.get(slot)

    def items(self):
        return self.values.items()

    def __repr__(self) -> str:
        inner = " ".join(f"({k} {v!r})" for k, v in sorted(self.values.items()))
        tag = f"f-{self.fact_id}" if self.fact_id is not None else "f-?"
        return f"<{tag} ({self.name} {inner})>"
