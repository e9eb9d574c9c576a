"""Naive full-rejoin matcher: the agenda recomputed from scratch.

``InferenceEngine`` maintains its agenda through a Rete network
(``repro.expert.rete.ReteNetwork``) whose nodes match with generated
code (``repro.expert.matchgen``).  :func:`interpreted_match` is the
reference reading of a :class:`Pattern`, constraint by constraint, and
:class:`NaiveNetwork` offers the network's interface but keeps no
memories: every agenda request re-runs :func:`match_lhs` for every rule
over the whole working memory and sorts by (salience, recency) — the
reference matching semantics the Rete network must reproduce activation
for activation.  It accepts every fact, so an engine built on it never
skips one.

:func:`naive_matcher` patches the network class, so engines constructed
inside the block match naively.  An engine keeps its network class for
life (``clear_facts`` rebuilds the same kind), so an engine built inside
the block stays naive after it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional
from unittest import mock

from repro.expert import rete
from repro.expert.conditions import Not, P, Pattern, Test, V
from repro.expert.engine import Activation
from repro.expert.template import Fact

Bindings = Dict[str, Any]


def interpreted_match(pattern: Pattern, fact: Fact,
                      bindings: Bindings) -> Optional[Bindings]:
    """Extended bindings when ``fact`` matches ``pattern``, else None."""
    if fact.name != pattern.template:
        return None
    new_bindings: Optional[Bindings] = None

    def ensure() -> Bindings:
        nonlocal new_bindings
        if new_bindings is None:
            new_bindings = dict(bindings)
        return new_bindings

    for slot, constraint in pattern.constraints.items():
        if slot not in fact.template.slots:
            return None
        value = fact.get(slot)
        if isinstance(constraint, V):
            scope = new_bindings if new_bindings is not None else bindings
            if constraint.name in scope:
                if scope[constraint.name] != value:
                    return None
            else:
                ensure()[constraint.name] = value
        elif isinstance(constraint, P):
            scope = new_bindings if new_bindings is not None else bindings
            if not constraint.check(value, scope):
                return None
        else:  # literal
            if value != constraint:
                return None
    result = new_bindings if new_bindings is not None else dict(bindings)
    if pattern.bind_as is not None:
        result = dict(result)
        result[pattern.bind_as] = fact
    return result


def not_holds(element: Not, facts: Iterable[Fact],
              bindings: Bindings) -> bool:
    """Negation as failure: no fact matches the pattern."""
    for fact in facts:
        if interpreted_match(element.pattern, fact, bindings) is not None:
            return False
    return True


def match_lhs(lhs: List[Any], facts: List[Fact]) -> List[Dict[str, Any]]:
    """All (bindings, matched-fact) combinations satisfying ``lhs``.

    Returns a list of dicts with keys ``bindings`` and ``facts`` (the
    Pattern-matched facts, in LHS order).
    """
    results: List[Dict[str, Any]] = []

    def extend(index: int, bindings: Bindings, matched: List[Fact]) -> None:
        if index == len(lhs):
            results.append({"bindings": bindings, "facts": list(matched)})
            return
        element = lhs[index]
        if isinstance(element, Pattern):
            for fact in facts:
                extended = interpreted_match(element, fact, bindings)
                if extended is not None:
                    matched.append(fact)
                    extend(index + 1, extended, matched)
                    matched.pop()
        elif isinstance(element, Test):
            if element.holds(bindings):
                extend(index + 1, bindings, matched)
        elif isinstance(element, Not):
            if not_holds(element, facts, bindings):
                extend(index + 1, bindings, matched)
        else:
            raise TypeError(f"bad conditional element {element!r}")

    extend(0, {}, [])
    return results


class NaiveNetwork:
    """Drop-in for ``ReteNetwork`` that re-joins on every agenda request."""

    def __init__(self, engine) -> None:
        self.engine = engine
        #: Length of the last agenda built (what ``agenda_size`` reports
        #: between builds, so asserts stay O(1) like the original engine).
        self._size = 0

    def add_production(self, rule, index: int) -> None:
        """Nothing to compile: rules are read from the engine per join."""

    def assert_fact(self, fact) -> None:
        """Nothing to propagate: facts are read from the engine per join."""

    def retract_fact(self, fact) -> None:
        """Nothing to propagate: facts are read from the engine per join."""

    def accepts(self, fact) -> bool:
        """Every fact goes through assert, run and retract."""
        return True

    def agenda_size(self) -> int:
        return self._size

    def agenda(self) -> List[Activation]:
        engine = self.engine
        facts = list(engine._facts.values())
        activations: List[Activation] = []
        for rule in engine.rules:
            if rule.name in engine.quarantined:
                continue
            for match in match_lhs(rule.lhs, facts):
                activation = Activation(
                    rule=rule,
                    facts=tuple(match["facts"]),
                    bindings=match["bindings"],
                )
                if activation.key() not in engine._fired:
                    activations.append(activation)
        activations.sort(
            key=lambda a: (a.rule.salience, a.recency()), reverse=True
        )
        self._size = len(activations)
        return activations

    def pop_best(self) -> Optional[Activation]:
        agenda = self.agenda()
        return agenda[0] if agenda else None


@contextmanager
def naive_matcher():
    """Build every rule engine with the naive matcher inside the block."""
    with mock.patch.object(rete, "ReteNetwork", NaiveNetwork):
        yield
