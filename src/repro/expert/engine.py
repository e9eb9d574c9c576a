"""Forward-chaining inference engine (the CLIPS core, paper section 6.2.1).

Data-driven execution: rules whose LHS is satisfied by the working memory
are *activated*; the agenda orders activations by salience (then recency)
and fires the top one; firing may assert/retract facts, which recomputes
activations.  Refraction guarantees an activation fires at most once for a
given combination of facts, so rules do not loop on stable memory.

Matching is incremental: assert/retract feed deltas through a Rete
network (:mod:`repro.expert.rete`) that maintains the agenda, so match
cost scales with working-memory *changes* rather than its size — the
property the paper gets for free from CLIPS.  The naive full-rejoin
matcher it must agree with, activation for activation, is a test-side
oracle (``tests/oracles``).

The engine also records a fire trace — CLIPS's headline advantage over
black-box classifiers is that "an expert system can give the user all of
the information that was used to reach its conclusion" (section 6.2.1),
and :class:`FiredRule` is exactly that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.expert.conditions import ConditionalElement
from repro.expert.template import Fact, Template


class EngineError(Exception):
    pass


@dataclass
class Rule:
    """A production: LHS conditional elements plus an RHS action."""

    name: str
    lhs: List[ConditionalElement]
    action: Callable[["RuleContext"], None]
    salience: int = 0
    doc: str = ""


@dataclass(frozen=True)
class Activation:
    rule: Rule
    facts: Tuple[Fact, ...]
    bindings: Dict[str, Any] = field(compare=False, hash=False)

    def key(self) -> Tuple[str, Tuple[int, ...]]:
        return (self.rule.name, tuple(f.fact_id for f in self.facts))

    def recency(self) -> int:
        return max((f.recency for f in self.facts), default=0)


@dataclass(frozen=True)
class FiredRule:
    """Trace record: which rule fired on which facts with which bindings."""

    rule_name: str
    fact_ids: Tuple[int, ...]
    bindings: Dict[str, Any]

    def __str__(self) -> str:
        ids = ",".join(f"f-{i}" for i in self.fact_ids)
        return f"FIRE {self.rule_name}: {ids}"


class RuleContext:
    """What an action sees: the engine, its bindings, the matched facts."""

    def __init__(
        self,
        engine: "InferenceEngine",
        bindings: Dict[str, Any],
        facts: Sequence[Fact],
    ) -> None:
        self.engine = engine
        self.bindings = bindings
        self.facts = list(facts)

    def __getitem__(self, var: str) -> Any:
        return self.bindings[var]

    def get(self, var: str, default: Any = None) -> Any:
        return self.bindings.get(var, default)

    def assert_fact(self, fact: Fact) -> Fact:
        return self.engine.assert_fact(fact)

    def retract(self, fact: Fact) -> None:
        self.engine.retract(fact)

    @property
    def context(self) -> Dict[str, Any]:
        return self.engine.context


class InferenceEngine:
    def __init__(self) -> None:
        self.templates: Dict[str, Template] = {}
        self.rules: List[Rule] = []
        self._facts: Dict[int, Fact] = {}
        self._next_fact_id = 1
        self._recency = 0
        self._fired: Set[Tuple[str, Tuple[int, ...]]] = set()
        #: Reverse index for refraction pruning: fact id -> fired keys
        #: that reference it.  Fact ids are monotonic and never reused,
        #: so a key naming a retracted id can never re-activate and is
        #: safe to drop — without this, daemon-lifetime engines leak one
        #: ``_fired`` entry per fired activation forever.
        self._fired_by_fact: Dict[int, Set[Tuple[str, Tuple[int, ...]]]] = {}
        self.fire_trace: List[FiredRule] = []
        #: Free-form context shared with rule actions (Secpert stores the
        #: warning sink and policy config here).
        self.context: Dict[str, Any] = {}
        #: Rules whose action raised: name -> "ErrorType: message".  A
        #: quarantined rule stops matching (its agenda entries are
        #: skipped) so one bad production cannot crash every subsequent
        #: event; the quarantine survives reset() because the defect is
        #: in the rule, not the working memory.
        self.quarantined: Dict[str, str] = {}
        #: Rule firings by rule name (a quarantined rule's included).
        self.firings: Dict[str, int] = {}
        #: Optional registry for the wall-time histograms no count can
        #: stand for (``secpert_match_seconds``,
        #: ``secpert_rule_latency_seconds``); counts go by :meth:`readings`.
        self.metrics: Any = None
        from repro.expert.rete import MatchStats, ReteNetwork

        #: Always-on match instrumentation, cheap enough to keep without
        #: a registry (see :class:`repro.expert.rete.MatchStats`).
        self.stats = MatchStats()
        self._rete = ReteNetwork(self)

    # -- definitions ---------------------------------------------------------
    def define_template(self, template: Template) -> Template:
        if template.name in self.templates:
            raise EngineError(f"duplicate template {template.name!r}")
        self.templates[template.name] = template
        return template

    def add_rule(self, rule: Rule) -> Rule:
        if any(r.name == rule.name for r in self.rules):
            raise EngineError(f"duplicate rule {rule.name!r}")
        self.rules.append(rule)
        self._rete.add_production(rule, len(self.rules) - 1)
        return rule

    # -- working memory ----------------------------------------------------------
    def assert_fact(self, fact: Fact) -> Fact:
        self._stamp(fact)
        self._facts[fact.fact_id] = fact
        self._propagate(self._rete.assert_fact, fact)
        return fact

    def accepts(self, fact: Fact) -> bool:
        """Whether asserting ``fact`` then running could fire anything
        (the matcher decides: see ``ReteNetwork.accepts``)."""
        return self._rete.accepts(fact)

    def skip_fact(self, fact: Fact) -> Fact:
        """Assert and retract ``fact`` at once, for a fact :meth:`accepts`
        turned down: it takes its fact id and recency and counts as
        asserted, as :meth:`assert_fact` would, but never enters working
        memory or the network."""
        self._stamp(fact)
        return fact

    def _stamp(self, fact: Fact) -> None:
        if fact.name not in self.templates:
            raise EngineError(f"assert of unknown template {fact.name!r}")
        if fact.fact_id is not None:
            raise EngineError(f"fact already asserted: {fact!r}")
        fact.fact_id = self._next_fact_id
        self._next_fact_id += 1
        self._recency += 1
        fact.recency = self._recency
        self.stats.facts_asserted += 1

    def retract(self, fact: Fact) -> None:
        if fact.fact_id is None or fact.fact_id not in self._facts:
            raise EngineError(f"retract of non-asserted fact {fact!r}")
        del self._facts[fact.fact_id]
        for key in self._fired_by_fact.pop(fact.fact_id, ()):
            self._fired.discard(key)
        self._propagate(self._rete.retract_fact, fact)

    def facts(self, template: Optional[str] = None) -> List[Fact]:
        out = list(self._facts.values())
        if template is not None:
            out = [f for f in out if f.name == template]
        return out

    def clear_facts(self) -> None:
        self._facts.clear()
        self._fired.clear()
        self._fired_by_fact.clear()
        self._rebuild_network()

    def reset(self) -> None:
        """CLIPS (reset): wipe facts, refraction memory, and trace."""
        self.clear_facts()
        self.fire_trace.clear()

    def _rebuild_network(self) -> None:
        self.stats.beta_tokens_live = 0
        self.stats.agenda_size = 0
        # An engine keeps its matcher class for life, so a matcher
        # installed at construction survives clear_facts().
        network = type(self._rete)(self)
        self._rete = network
        for index, rule in enumerate(self.rules):
            network.add_production(rule, index)

    def _propagate(self, step: Callable[[Fact], None], fact: Fact) -> None:
        stats = self.stats
        start = perf_counter()
        step(fact)
        elapsed = perf_counter() - start
        stats.match_calls += 1
        stats.match_seconds += elapsed
        stats.agenda_size = self._rete.agenda_size()
        if stats.agenda_size > stats.agenda_peak:
            stats.agenda_peak = stats.agenda_size
        if self.metrics is not None:
            self.metrics.histogram("secpert_match_seconds").observe(elapsed)

    # -- agenda -----------------------------------------------------------------
    def agenda(self) -> List[Activation]:
        return self._rete.agenda()

    def match_stats(self) -> Dict[str, Any]:
        """Wire-friendly snapshot of the always-on match instrumentation."""
        return self.stats.to_dict()

    def readings(self) -> Iterator[tuple]:
        """The engine's counts, in the shape
        :class:`repro.telemetry.Sampler` writes into a registry."""
        stats = self.stats
        if stats.facts_asserted:
            yield "counter", "secpert_facts_asserted_total", {}, stats.facts_asserted
        yield "counter", "secpert_alpha_activations_total", {}, stats.alpha_activations
        for rule, count in self.firings.items():
            yield "counter", "secpert_rule_firings_total", {"rule": rule}, count
        # The network's size after the latest match step (0 before any).
        matched = stats.match_calls > 0
        yield "gauge", "secpert_beta_tokens_live", {}, stats.beta_tokens_live if matched else 0
        yield "gauge", "secpert_agenda_size", {}, stats.agenda_size if matched else 0

    def run(self, limit: int = 10_000) -> int:
        """Fire until quiescent; returns the number of rules fired."""
        fired = 0
        while fired < limit:
            activation = self._rete.pop_best()
            if activation is None:
                break
            key = activation.key()
            self._fired.add(key)
            for fact_id in key[1]:
                self._fired_by_fact.setdefault(fact_id, set()).add(key)
            self.fire_trace.append(
                FiredRule(
                    rule_name=activation.rule.name,
                    fact_ids=tuple(f.fact_id for f in activation.facts),
                    bindings=dict(activation.bindings),
                )
            )
            context = RuleContext(self, activation.bindings, activation.facts)
            action_start = perf_counter() if self.metrics is not None else 0.0
            try:
                activation.rule.action(context)
            except Exception as exc:  # noqa: BLE001 - rule containment
                self.quarantined[activation.rule.name] = (
                    f"{type(exc).__name__}: {exc}"
                )
            finally:
                name = activation.rule.name
                self.firings[name] = self.firings.get(name, 0) + 1
                if self.metrics is not None:
                    self.metrics.histogram(
                        "secpert_rule_latency_seconds", rule=name
                    ).observe(perf_counter() - action_start)
            fired += 1
        else:
            # Exactly ``limit`` firings that leave the agenda empty are a
            # normal quiescent run; only a pending activation exceeds it.
            if self.agenda():
                raise EngineError(f"run() exceeded fire limit ({limit})")
        return fired
