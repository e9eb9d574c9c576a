"""Rule left-hand sides: patterns, variables, tests, negation.

A rule's LHS is an ordered list of conditional elements:

* :class:`Pattern` — match one fact of a template, constraining slots with
  literals, variables (``V("x")``), or predicates;
* :class:`Test` — a predicate over the bindings accumulated so far
  (CLIPS ``(test ...)``);
* :class:`Not` — no fact matches the given pattern under the current
  bindings (CLIPS ``(not ...)``).

The Rete network (:mod:`repro.expert.rete`) joins them, with variable
bindings threaded left to right; the naive full-rejoin reference
matcher lives in ``tests/oracles``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.expert.template import Fact

Bindings = Dict[str, Any]


@dataclass(frozen=True)
class V:
    """A variable: binds on first use, must match on later uses."""

    name: str


def _predicate_arity(fn: Callable[..., bool]) -> int:
    """How many positional arguments ``fn`` accepts: 2, 1, or 0 (unknown).

    Resolved once so a ``TypeError`` raised *inside* a two-argument
    predicate propagates instead of being mistaken for an arity mismatch
    and silently retried with one argument.
    """
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return 0  # some C builtins expose no signature
    positional = 0
    for parameter in signature.parameters.values():
        if parameter.kind == parameter.VAR_POSITIONAL:
            return 2
        if parameter.kind in (parameter.POSITIONAL_ONLY,
                              parameter.POSITIONAL_OR_KEYWORD):
            positional += 1
    return 2 if positional >= 2 else 1


@dataclass(frozen=True)
class P:
    """A predicate constraint: ``P(lambda value, bindings: ...)``.

    One-argument callables are also accepted (value only); arity is
    resolved at construction from the callable's signature.
    """

    fn: Callable[..., bool]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_arity", _predicate_arity(self.fn))

    def check(self, value: Any, bindings: Bindings) -> bool:
        arity = self._arity
        if arity == 2:
            return bool(self.fn(value, bindings))
        if arity == 1:
            return bool(self.fn(value))
        # Signature unavailable: probe, accepting the legacy ambiguity.
        try:
            return bool(self.fn(value, bindings))
        except TypeError:
            return bool(self.fn(value))


class Pattern:
    """Match a fact of ``template`` with per-slot constraints.

    ``bind_as`` binds the whole fact to a name (CLIPS ``?f <- (...)``),
    so actions can retract it.
    """

    def __init__(
        self,
        template: str,
        bind_as: Optional[str] = None,
        **constraints: Any,
    ) -> None:
        self.template = template
        self.bind_as = bind_as
        self.constraints = constraints

    def match(self, fact: Fact, bindings: Bindings) -> Optional[Bindings]:
        """Return extended bindings when ``fact`` matches, else None.

        Constraints are read in declaration order: the fact's template
        must have the slot; a variable already bound must equal the
        slot's value (``bound != value`` fails) and an unbound one binds
        it; a predicate sees the bindings so far, including variables
        bound earlier in this pattern; a literal must equal the value.
        The result is a new dict: ``bindings``, then the variables this
        pattern bound in slot order, then ``bind_as``.
        """
        template = fact.template
        if template.name != self.template:
            return None
        readers = template.readers
        record = fact.record
        scope = dict(bindings)
        for slot, constraint in self.constraints.items():
            read = readers.get(slot)
            if read is None:
                return None
            value = read(record)
            if isinstance(constraint, V):
                name = constraint.name
                if name not in scope:
                    scope[name] = value
                elif scope[name] != value:
                    return None
            elif isinstance(constraint, P):
                if not constraint.check(value, scope):
                    return None
            elif value != constraint:
                return None
        if self.bind_as is not None:
            scope[self.bind_as] = fact
        return scope

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pattern({self.template!r}, {self.constraints})"


@dataclass(frozen=True)
class Test:
    """Predicate over the bindings (no fact consumed)."""

    # Tell pytest this production-system class is not a test-case class.
    __test__ = False

    fn: Callable[[Bindings], bool]

    def holds(self, bindings: Bindings) -> bool:
        return bool(self.fn(bindings))


@dataclass(frozen=True)
class Not:
    """Negation as failure over one pattern."""

    pattern: Pattern


ConditionalElement = Any  # Pattern | Test | Not
