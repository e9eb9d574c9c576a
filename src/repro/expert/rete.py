"""Rete-style incremental matching (the CLIPS algorithm, paper section 6.2.1).

A naive engine recomputes the whole agenda after every firing: each
``agenda()`` call re-runs ``match_lhs`` for every rule over every fact, an
O(rules x facts^k) join (that engine survives as the differential oracle
in ``tests/oracles``).  CLIPS — the shell the paper builds Secpert on —
never does that: its Rete network makes match cost proportional to the
*change* in working memory, which is what lets a detector keep up with a
high event rate.

This module is that network:

* **alpha layer** — :class:`AlphaMemory` instances index facts by template
  and by the hashable constant-slot constraints of the patterns that use
  them; memories are shared between patterns with the same constants.
* **beta layer** — a tree of shared nodes, as in CLIPS: a production
  reuses an existing node when its parent node, the ``Test`` elements
  since that parent, the node kind and the :class:`Pattern` *object* are
  all the same, so rules built on one Pattern object match a fact once,
  not once per rule.  :class:`JoinNode` keeps a token memory for the
  partial matches of the LHS prefix, hashed by the values of variables
  the pattern re-uses (the join keys), plus a per-node index of the
  alpha memory's facts by the same keys; a delta on either side only
  touches the matching bucket.  :class:`NegNode` keeps a match *count*
  per token so ``Not`` flips incrementally on assert/retract instead of
  rescanning working memory.
* **edges** — each node passes its outputs down ``edges``, a list of
  ``(tests, target)`` pairs.  CLIPS ``(test ...)`` elements live on the
  edge: they run on the extended bindings before any token is made, so a
  rejected match costs no token.  Leading tests run once on the dummy
  token when the head node is created.  A production added under an
  existing shared node replays that node's current outputs into its new
  edge only.
* **agenda** — a maintained priority structure (:class:`ReteNetwork`'s
  entry dict plus a lazy-deletion heap) updated by activation /
  deactivation deltas.  The order key ``(-salience, -recency,
  rule_index, fact_ids)`` reproduces the naive engine's stable sort
  bit-identically: the naive agenda enumerates rules in definition order
  and fact tuples in ascending fact-id order, so for equal (salience,
  recency) the naive order *is* (rule_index, fact_ids).

Each alpha-fed node matches with its pattern's generated matcher
(:mod:`repro.expert.matchgen`), built once for the names bound above the
node; it is the single arbiter of match semantics — the alpha constants
and join-key hashing only prune candidates, and values that are
unhashable fall back to scan lists, so the network can never accept or
reject a pairing the naive matcher would not.  A fact no alpha memory
takes can change nothing while the agenda is empty
(:meth:`ReteNetwork.accepts`), so the engine's caller may skip it.

Propagation ordering (the classic Rete pitfalls):

* assert and retract both visit the alpha-fed nodes a fact reaches
  deepest-first across the whole network, ordered by ``(-position,
  rule_index)``.  Once chains share nodes, a per-production order is not
  enough: a fact feeding a shared head and a deeper join on the same
  template must reach the deeper node before the head emits tokens that
  would see it twice (with an unhashable join value both sides scan), and
  a ``Not`` over the same template must never double-count it;
* retract removes the fact from every alpha memory first and deletes
  the tokens that consumed it upstream-first (token creation order).
  Only then do the nodes drop it from their right indexes and
  re-evaluate negation counts, deepest-first again: a ``Not`` that flips
  back to zero must emit into downstream nodes that have already dropped
  the fact, or a deeper join would pair the new token with it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.expert.conditions import Not, P, Pattern, Test, V
from repro.expert.engine import Activation, Rule
from repro.expert.matchgen import build_matcher
from repro.expert.template import Fact

#: Sentinel for join keys containing unhashable values: those tokens and
#: facts live in scan lists and are checked against every candidate.
_UNINDEXED = object()


@dataclass
class MatchStats:
    """Always-on match instrumentation (cheap scalars, no registry needed).

    ``InferenceEngine`` keeps one of these regardless of whether a
    telemetry registry is attached; the serve worker ships it on the
    result wire so the supervisor can fold it into daemon-lifetime
    metrics.
    """

    facts_asserted: int = 0
    match_calls: int = 0
    match_seconds: float = 0.0
    alpha_activations: int = 0
    beta_tokens_created: int = 0
    beta_tokens_live: int = 0
    agenda_size: int = 0
    agenda_peak: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "facts_asserted": self.facts_asserted,
            "match_calls": self.match_calls,
            "match_seconds": self.match_seconds,
            "alpha_activations": self.alpha_activations,
            "beta_tokens_created": self.beta_tokens_created,
            "beta_tokens_live": self.beta_tokens_live,
            "agenda_size": self.agenda_size,
            "agenda_peak": self.agenda_peak,
        }


class Token:
    """A partial match: the facts consumed by an LHS prefix.

    ``node`` is the node whose input memory holds the token (None once
    deleted); ``fact`` is the fact the creating join consumed (None for
    dummy / negation outputs); ``children`` are the downstream tokens
    derived from this one, deleted by cascade.
    """

    __slots__ = ("node", "parent", "fact", "bindings", "facts", "children",
                 "neg_count", "index_key")

    def __init__(
        self,
        node: Any,
        parent: Optional["Token"],
        fact: Optional[Fact],
        bindings: Dict[str, Any],
        facts: Tuple[Fact, ...],
    ) -> None:
        self.node = node
        self.parent = parent
        self.fact = fact
        self.bindings = bindings
        self.facts = facts
        # Ordered identity set (dict keys): the head node's dummy token
        # parents every position-0 token, so child removal must be O(1).
        self.children: Dict["Token", None] = {}
        self.neg_count = 0
        self.index_key: Any = _UNINDEXED


class AlphaMemory:
    """Facts of one template passing a set of constant-slot tests."""

    __slots__ = ("template", "literals", "facts", "successors")

    def __init__(self, template: str,
                 literals: Tuple[Tuple[str, Any], ...]) -> None:
        self.template = template
        self.literals = literals
        self.facts: Dict[int, Fact] = {}
        #: Join / negation nodes fed from this memory.
        self.successors: List[Any] = []

    def matches(self, fact: Fact) -> bool:
        template = fact.template
        if template.name != self.template:
            return False
        readers = template.readers
        record = fact.record
        for slot, expected in self.literals:
            read = readers.get(slot)
            if read is None or read(record) != expected:
                return False
        return True


def _hashable_or_unindexed(key: Tuple[Any, ...]) -> Any:
    try:
        hash(key)
    except TypeError:
        return _UNINDEXED
    return key


Edge = Tuple[Tuple[Test, ...], Any]


class _AlphaFedNode:
    """Shared machinery for nodes with a left token memory and a right
    (alpha) input: hashed indexes on both sides, scan-list fallbacks,
    and the outgoing edges."""

    __slots__ = ("network", "pattern", "match", "alpha", "join_slots",
                 "edges", "rule_index", "position", "tokens", "left_index",
                 "left_scan", "right_index", "right_scan")

    def __init__(self, network: "ReteNetwork", pattern: Pattern,
                 alpha: AlphaMemory, bound: FrozenSet[str],
                 rule_index: int, position: int) -> None:
        self.network = network
        self.pattern = pattern
        #: The generated matcher: every token here binds ``bound``.
        self.match = build_matcher(pattern, bound)
        self.alpha = alpha
        self.join_slots = _join_slots(pattern, bound)
        #: ``(tests, target)``: an output reaches ``target`` when every
        #: test holds on its bindings.
        self.edges: List[Edge] = []
        #: Index of the production that created the node and the node's
        #: LHS position there (the same in every production sharing it).
        self.rule_index = rule_index
        self.position = position
        self.tokens: Dict[Token, None] = {}
        # Buckets are insertion-ordered dicts, not lists: iteration
        # order is identical, but removal is O(1) — head-position nodes
        # have no join slots, so every alpha fact shares one bucket and
        # a list.remove there would make retract O(working memory).
        self.left_index: Dict[Any, Dict[Token, None]] = {}
        self.left_scan: Dict[Token, None] = {}
        self.right_index: Dict[Any, Dict[int, Fact]] = {}
        self.right_scan: Dict[int, Fact] = {}
        # The alpha memory may predate this node (rule added after
        # facts): replay its contents into the right index.
        for fact in alpha.facts.values():
            self._index_right(fact)

    # -- join keys ------------------------------------------------------
    def _left_key(self, bindings: Dict[str, Any]) -> Any:
        return _hashable_or_unindexed(
            tuple(bindings[name] for _, name in self.join_slots)
        )

    def _right_key(self, fact: Fact) -> Any:
        readers = fact.template.readers
        record = fact.record
        try:
            key = tuple(readers[slot](record) for slot, _ in self.join_slots)
        except KeyError:
            # Pattern constrains a slot this template lacks; the fact can
            # never match, but keep it reachable so match() says so.
            return _UNINDEXED
        return _hashable_or_unindexed(key)

    # -- memory maintenance ---------------------------------------------
    def _store_token(self, token: Token) -> None:
        key = self._left_key(token.bindings)
        token.index_key = key
        self.tokens[token] = None
        if key is _UNINDEXED:
            self.left_scan[token] = None
        else:
            self.left_index.setdefault(key, {})[token] = None

    def detach_token(self, token: Token) -> None:
        del self.tokens[token]
        if token.index_key is _UNINDEXED:
            del self.left_scan[token]
        else:
            bucket = self.left_index[token.index_key]
            del bucket[token]
            if not bucket:
                del self.left_index[token.index_key]

    def _index_right(self, fact: Fact) -> Any:
        key = self._right_key(fact)
        if key is _UNINDEXED:
            self.right_scan[fact.fact_id] = fact
        else:
            self.right_index.setdefault(key, {})[fact.fact_id] = fact
        return key

    def _unindex_right(self, fact: Fact) -> None:
        key = self._right_key(fact)
        if key is _UNINDEXED:
            del self.right_scan[fact.fact_id]
        else:
            bucket = self.right_index[key]
            del bucket[fact.fact_id]
            if not bucket:
                del self.right_index[key]

    # -- candidate pruning ----------------------------------------------
    def _right_candidates(self, token: Token) -> Iterable[Fact]:
        if token.index_key is _UNINDEXED:
            return list(self.alpha.facts.values())
        return chain(self.right_index.get(token.index_key, {}).values(),
                     self.right_scan.values())

    def _left_candidates(self, key: Any) -> Iterable[Token]:
        if key is _UNINDEXED:
            return list(self.tokens)
        return chain(self.left_index.get(key, ()), self.left_scan)

    # -- output ---------------------------------------------------------
    def _emit(self, edges: Iterable[Edge], token: Token,
              fact: Optional[Fact], bindings: Dict[str, Any]) -> None:
        """Pass one output (``token`` extended by ``fact``, if any) down
        each edge whose tests hold."""
        make_token = self.network._make_token
        for tests, target in edges:
            for test in tests:
                if not test.holds(bindings):
                    break
            else:
                facts = token.facts if fact is None else token.facts + (fact,)
                target.add_token(
                    make_token(target, token, fact, bindings, facts)
                )


class JoinNode(_AlphaFedNode):
    """Extend each left token with every alpha fact the pattern accepts."""

    __slots__ = ()

    def add_token(self, token: Token) -> None:
        self._store_token(token)
        self._join(token, self.edges)

    def _join(self, token: Token, edges: Iterable[Edge]) -> None:
        for fact in self._right_candidates(token):
            extended = self.match(fact, token.bindings)
            if extended is not None:
                self._emit(edges, token, fact, extended)

    def replay(self, edge: Edge) -> None:
        for token in list(self.tokens):
            self._join(token, (edge,))

    def right_assert(self, fact: Fact) -> None:
        key = self._index_right(fact)
        for token in list(self._left_candidates(key)):
            extended = self.match(fact, token.bindings)
            if extended is not None:
                self._emit(self.edges, token, fact, extended)

    def right_retract(self, fact: Fact) -> None:
        # Dying tokens were already cascaded by the network sweep; only
        # the per-node index still references the fact.
        self._unindex_right(fact)


class NegNode(_AlphaFedNode):
    """CLIPS ``(not ...)``: pass a token while its match count is zero."""

    __slots__ = ()

    def add_token(self, token: Token) -> None:
        self._store_token(token)
        count = 0
        for fact in self._right_candidates(token):
            if self.match(fact, token.bindings) is not None:
                count += 1
        token.neg_count = count
        if count == 0:
            self._emit(self.edges, token, None, token.bindings)

    def replay(self, edge: Edge) -> None:
        for token in list(self.tokens):
            if token.neg_count == 0:
                self._emit((edge,), token, None, token.bindings)

    def right_assert(self, fact: Fact) -> None:
        key = self._index_right(fact)
        for token in list(self._left_candidates(key)):
            if self.match(fact, token.bindings) is not None:
                token.neg_count += 1
                if token.neg_count == 1:
                    for child in list(token.children):
                        self.network._delete_token(child)

    def right_retract(self, fact: Fact) -> None:
        self._unindex_right(fact)
        for token in list(self._left_candidates(self._right_key(fact))):
            if self.match(fact, token.bindings) is not None:
                token.neg_count -= 1
                if token.neg_count == 0:
                    self._emit(self.edges, token, None, token.bindings)


class ProductionNode:
    """Tree leaf: tokens arriving here are (de)activations."""

    __slots__ = ("network", "rule", "rule_index")

    def __init__(self, network: "ReteNetwork", rule: Rule,
                 rule_index: int) -> None:
        self.network = network
        self.rule = rule
        self.rule_index = rule_index

    def add_token(self, token: Token) -> None:
        self.network._activate(self.rule, self.rule_index, token)

    def detach_token(self, token: Token) -> None:
        self.network._deactivate(self.rule, token)


class _AgendaEntry:
    __slots__ = ("activation", "order", "live")

    def __init__(self, activation: Activation, order: Tuple) -> None:
        self.activation = activation
        self.order = order
        self.live = True


def _join_slots(pattern: Pattern,
                bound: FrozenSet[str]) -> Tuple[Tuple[str, str], ...]:
    """Slots whose variable is already bound upstream: the join keys."""
    return tuple(
        (slot, constraint.name)
        for slot, constraint in pattern.constraints.items()
        if isinstance(constraint, V) and constraint.name in bound
    )


def _deepest_first(node: _AlphaFedNode) -> Tuple[int, int]:
    """Propagation order across the whole network (see module doc)."""
    return (-node.position, node.rule_index)


class ReteNetwork:
    """The network plus the maintained agenda for one engine."""

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self._alpha_by_template: Dict[str, List[AlphaMemory]] = {}
        self._alpha_by_key: Dict[Tuple, AlphaMemory] = {}
        #: (parent, tests since parent, node class, Pattern object) ->
        #: the shared node; the parent is None at the root.
        self._nodes: Dict[Tuple, _AlphaFedNode] = {}
        #: fact_id -> tokens whose creating join consumed the fact, in
        #: creation order (ancestors before descendants).
        self._tokens_by_fact: Dict[int, List[Token]] = {}
        self._entries: Dict[Tuple[str, Tuple[int, ...]], _AgendaEntry] = {}
        self._heap: List[Tuple[Tuple, int, _AgendaEntry]] = []
        self._seq = 0
        #: The fact :meth:`accepts` last tested and the alpha memories
        #: that take it, which the assert of that fact reuses.
        self._tested: Optional[Tuple[Fact, List[AlphaMemory]]] = None

    # -- construction ----------------------------------------------------
    def add_production(self, rule: Rule, rule_index: int) -> None:
        bound: Set[str] = set()
        parent: Optional[_AlphaFedNode] = None
        tests: List[Test] = []
        for position, element in enumerate(rule.lhs):
            if isinstance(element, Test):
                tests.append(element)
                continue
            if isinstance(element, Pattern):
                kind, pattern = JoinNode, element
            elif isinstance(element, Not):
                kind, pattern = NegNode, element.pattern
            else:
                raise TypeError(f"bad conditional element {element!r}")
            key = (parent, tuple(tests), kind, pattern)
            node = self._nodes.get(key)
            if node is None:
                alpha = self._alpha_for(pattern)
                node = kind(self, pattern, alpha, frozenset(bound),
                            rule_index, position)
                alpha.successors.append(node)
                self._nodes[key] = node
                self._attach(parent, key[1], node)
            if kind is JoinNode:
                for constraint in pattern.constraints.values():
                    if isinstance(constraint, V):
                        bound.add(constraint.name)
                if pattern.bind_as is not None:
                    bound.add(pattern.bind_as)
            parent, tests = node, []
        self._attach(parent, tuple(tests),
                     ProductionNode(self, rule, rule_index))

    def _attach(self, parent: Optional[_AlphaFedNode],
                tests: Tuple[Test, ...], target: Any) -> None:
        """Connect ``target`` below ``parent`` (None: the network root)."""
        if parent is None:
            # Seed with the dummy token; for rules added after facts the
            # backfilled alpha memories replay existing working memory.
            if all(test.holds({}) for test in tests):
                target.add_token(self._make_token(target, None, None, {}, ()))
            return
        edge = (tests, target)
        parent.edges.append(edge)
        # Only the new edge sees the replay: the parent's other edges
        # already hold these outputs.
        parent.replay(edge)

    def _alpha_for(self, pattern: Pattern) -> AlphaMemory:
        literals = []
        for slot, constraint in pattern.constraints.items():
            if isinstance(constraint, (V, P)):
                continue
            try:
                hash(constraint)
            except TypeError:
                continue  # unhashable literal: left to match() at join time
            literals.append((slot, constraint))
        literals.sort(key=lambda item: item[0])
        key = (pattern.template, tuple(literals))
        memory = self._alpha_by_key.get(key)
        if memory is None:
            self._tested = None  # a tested fact has not met this memory
            memory = AlphaMemory(pattern.template, tuple(literals))
            self._alpha_by_key[key] = memory
            self._alpha_by_template.setdefault(
                pattern.template, []
            ).append(memory)
            for fact in self.engine._facts.values():
                if memory.matches(fact):
                    memory.facts[fact.fact_id] = fact
        return memory

    # -- deltas ----------------------------------------------------------
    def _memories_taking(self, fact: Fact) -> List[AlphaMemory]:
        return [memory
                for memory in self._alpha_by_template.get(fact.name, ())
                if memory.matches(fact)]

    def accepts(self, fact: Fact) -> bool:
        """False when asserting ``fact`` and running to quiescence could
        change nothing: no activation is pending and no alpha memory
        takes the fact, so it would reach no node.  The memories found
        are kept for the :meth:`assert_fact` of the same fact, so an
        accepted fact is tested against each memory once."""
        hit = self._memories_taking(fact)
        self._tested = (fact, hit)
        return bool(hit or self._entries)

    def assert_fact(self, fact: Fact) -> None:
        tested, self._tested = self._tested, None
        if tested is not None and tested[0] is fact:
            hit = tested[1]
        else:
            hit = self._memories_taking(fact)
        for memory in hit:
            memory.facts[fact.fact_id] = fact
        self.engine.stats.alpha_activations += len(hit)
        nodes = [node for memory in hit for node in memory.successors]
        nodes.sort(key=_deepest_first)
        for node in nodes:
            node.right_assert(fact)

    def retract_fact(self, fact: Fact) -> None:
        fact_id = fact.fact_id
        hit: List[AlphaMemory] = []
        for memory in self._alpha_by_template.get(fact.name, ()):
            if memory.facts.pop(fact_id, None) is not None:
                hit.append(memory)
        # Creation order puts ancestors first, so each cascade runs
        # before its descendants are visited (they are already dead).
        for token in self._tokens_by_fact.pop(fact_id, ()):
            if token.node is not None:
                self._delete_token(token)
        nodes = [node for memory in hit for node in memory.successors]
        nodes.sort(key=_deepest_first)
        for node in nodes:
            node.right_retract(fact)

    # -- tokens ----------------------------------------------------------
    def _make_token(self, node: Any, parent: Optional[Token],
                    fact: Optional[Fact], bindings: Dict[str, Any],
                    facts: Tuple[Fact, ...]) -> Token:
        token = Token(node, parent, fact, bindings, facts)
        if parent is not None:
            parent.children[token] = None
        if fact is not None:
            self._tokens_by_fact.setdefault(
                fact.fact_id, []
            ).append(token)
        stats = self.engine.stats
        stats.beta_tokens_created += 1
        stats.beta_tokens_live += 1
        return token

    def _delete_token(self, token: Token) -> None:
        while token.children:
            self._delete_token(next(reversed(token.children)))
        if token.parent is not None:
            del token.parent.children[token]
        node = token.node
        token.node = None
        node.detach_token(token)
        if token.fact is not None:
            bucket = self._tokens_by_fact.get(token.fact.fact_id)
            if bucket is not None:
                bucket.remove(token)
        self.engine.stats.beta_tokens_live -= 1

    # -- agenda ----------------------------------------------------------
    def _activate(self, rule: Rule, rule_index: int, token: Token) -> None:
        engine = self.engine
        if rule.name in engine.quarantined:
            return
        fact_ids = tuple(f.fact_id for f in token.facts)
        key = (rule.name, fact_ids)
        if key in engine._fired:
            return  # refraction: a Not flip may re-derive a fired match
        activation = Activation(
            rule=rule, facts=token.facts, bindings=dict(token.bindings)
        )
        order = (-rule.salience, -activation.recency(), rule_index, fact_ids)
        stale = self._entries.get(key)
        if stale is not None:
            stale.live = False
        entry = _AgendaEntry(activation, order)
        self._entries[key] = entry
        heapq.heappush(self._heap, (order, self._seq, entry))
        self._seq += 1

    def _deactivate(self, rule: Rule, token: Token) -> None:
        key = (rule.name, tuple(f.fact_id for f in token.facts))
        entry = self._entries.pop(key, None)
        if entry is not None:
            entry.live = False

    def pop_best(self) -> Optional[Activation]:
        """Remove and return the highest-priority live activation."""
        quarantined = self.engine.quarantined
        heap = self._heap
        while heap:
            entry = heap[0][2]
            if not entry.live:
                heapq.heappop(heap)
                continue
            heapq.heappop(heap)
            entry.live = False
            activation = entry.activation
            self._entries.pop(activation.key(), None)
            if activation.rule.name in quarantined:
                continue  # pending entries of a rule quarantined mid-run
            return activation
        return None

    def agenda(self) -> List[Activation]:
        """Snapshot in firing order (mirrors the naive ``agenda()``)."""
        quarantined = self.engine.quarantined
        entries = [
            entry for entry in self._entries.values()
            if entry.activation.rule.name not in quarantined
        ]
        entries.sort(key=lambda entry: entry.order)
        return [entry.activation for entry in entries]

    def agenda_size(self) -> int:
        return len(self._entries)
