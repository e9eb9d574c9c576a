"""Naive full-rejoin matcher: the agenda recomputed from scratch.

``InferenceEngine`` maintains its agenda through a Rete network
(``repro.expert.rete.ReteNetwork``).  :class:`NaiveNetwork` offers the
same interface but keeps no memories: every agenda request re-runs
``match_lhs`` for every rule over the whole working memory and sorts by
(salience, recency) — the reference matching semantics the Rete network
must reproduce activation for activation.

:func:`naive_matcher` patches the network class, so engines constructed
inside the block match naively.  An engine keeps its network class for
life (``clear_facts`` rebuilds the same kind), so an engine built inside
the block stays naive after it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional
from unittest import mock

from repro.expert import rete
from repro.expert.conditions import match_lhs
from repro.expert.engine import Activation


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
