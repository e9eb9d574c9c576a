"""Rete network tests: incremental alpha/beta matching, negation flips,
maintained agenda, and the lockstep equivalence property against the
naive matcher (the ``tests/oracles`` reference)."""

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expert import (
    InferenceEngine,
    Not,
    Pattern,
    Rule,
    Template,
    Test,
    V,
)
from repro.expert.rete import JoinNode, NegNode
from tests.oracles import naive_matcher


def log_action(ctx):
    ctx.context.setdefault("log", []).append(
        (ctx.engine.fire_trace[-1].rule_name,
         tuple(f.fact_id for f in ctx.facts))
    )


def build(rete, rules, templates=("ev", "st", "mark")):
    """An engine on the Rete network, or on the naive oracle."""
    with contextlib.nullcontext() if rete else naive_matcher():
        eng = InferenceEngine()
    eng.define_template(Template.define("ev", "kind", "key", "val"))
    eng.define_template(Template.define("st", "key", "lvl"))
    eng.define_template(Template.define("mark", "key"))
    for rule in rules:
        eng.add_rule(rule)
    return eng


def ev(engine, kind="a", key="k", val=0):
    return engine.assert_fact(
        engine.templates["ev"].make(kind=kind, key=key, val=val)
    )


def state(engine, key="k", lvl=0):
    return engine.assert_fact(
        engine.templates["st"].make(key=key, lvl=lvl)
    )


JOIN_RULE = Rule(
    name="join",
    lhs=[
        Pattern("ev", key=V("k"), val=V("v")),
        Pattern("st", key=V("k"), lvl=V("l")),
        Test(lambda b: b["v"] > b["l"]),
    ],
    action=log_action,
)

NOT_RULE = Rule(
    name="unmarked",
    lhs=[
        Pattern("st", key=V("k")),
        Not(Pattern("mark", key=V("k"))),
    ],
    action=log_action,
)


class TestAlphaLayer:
    def test_facts_routed_by_template_and_constants(self):
        eng = build(True, [
            Rule("a-only", [Pattern("ev", kind="a")], log_action),
            Rule("b-only", [Pattern("ev", kind="b")], log_action),
        ])
        ev(eng, kind="a")
        net = eng._rete
        sizes = {
            (mem.template, mem.literals): len(mem.facts)
            for mem in net._alpha_by_key.values()
        }
        assert sizes[("ev", (("kind", "a"),))] == 1
        assert sizes[("ev", (("kind", "b"),))] == 0

    def test_patterns_with_same_constants_share_a_memory(self):
        eng = build(True, [
            Rule("r1", [Pattern("ev", kind="a", val=V("v"))], log_action),
            Rule("r2", [Pattern("ev", kind="a", key=V("k"))], log_action),
        ])
        assert len(eng._rete._alpha_by_key) == 1
        memory = next(iter(eng._rete._alpha_by_key.values()))
        assert len(memory.successors) == 2

    def test_agenda_appears_without_calling_agenda(self):
        # The point of the maintained agenda: activations exist as a
        # side effect of assert, not of an agenda() rebuild.
        eng = build(True, [JOIN_RULE])
        state(eng, lvl=1)
        ev(eng, val=5)
        assert eng._rete.agenda_size() == 1


class TestIncrementalJoin:
    def test_join_from_either_side(self):
        eng = build(True, [JOIN_RULE])
        f1 = ev(eng, val=5)
        s1 = state(eng, lvl=1)
        assert [a.key() for a in eng.agenda()] == [
            ("join", (f1.fact_id, s1.fact_id))
        ]
        # Right activation of the first pattern after the state exists.
        f2 = ev(eng, val=9)
        assert len(eng.agenda()) == 2
        eng.retract(f1)
        assert [a.key() for a in eng.agenda()] == [
            ("join", (f2.fact_id, s1.fact_id))
        ]

    def test_test_node_filters_on_extension(self):
        eng = build(True, [JOIN_RULE])
        state(eng, lvl=10)
        ev(eng, val=5)  # 5 > 10 fails
        assert eng.agenda() == []

    def test_join_keys_prune_candidates(self):
        eng = build(True, [JOIN_RULE])
        for i in range(10):
            state(eng, key=f"k{i}", lvl=0)
        before = eng.stats.beta_tokens_created
        ev(eng, key="k3", val=1)
        # Only the matching bucket is joined: one ev token + one pair
        # (the Test runs on the edge, so it makes no token of its own),
        # not one per state fact.
        assert eng.stats.beta_tokens_created - before == 2

    def test_unhashable_join_values_fall_back_to_scan(self):
        eng = build(True, [JOIN_RULE])
        s = eng.assert_fact(eng.templates["st"].make(key=["k"], lvl=1))
        f = eng.assert_fact(
            eng.templates["ev"].make(kind="a", key=["k"], val=5)
        )
        assert [a.key() for a in eng.agenda()] == [
            ("join", (f.fact_id, s.fact_id))
        ]
        node = next(
            n for m in eng._rete._alpha_by_key.values()
            for n in m.successors
            if isinstance(n, JoinNode) and n.join_slots
        )
        assert node.left_scan and node.right_scan

    def test_rule_added_after_facts_replays_memory(self):
        eng = build(True, [])
        f = ev(eng, val=5)
        s = state(eng, lvl=1)
        eng.add_rule(JOIN_RULE)
        assert [a.key() for a in eng.agenda()] == [
            ("join", (f.fact_id, s.fact_id))
        ]


class TestIncrementalNegation:
    def test_not_flips_on_assert_and_retract(self):
        eng = build(True, [NOT_RULE])
        s = state(eng, key="k")
        assert [a.key() for a in eng.agenda()] == [
            ("unmarked", (s.fact_id,))
        ]
        mark = eng.assert_fact(eng.templates["mark"].make(key="k"))
        assert eng.agenda() == []
        eng.retract(mark)
        assert [a.key() for a in eng.agenda()] == [
            ("unmarked", (s.fact_id,))
        ]

    def test_match_counts_not_booleans(self):
        eng = build(True, [NOT_RULE])
        state(eng, key="k")
        m1 = eng.assert_fact(eng.templates["mark"].make(key="k"))
        m2 = eng.assert_fact(eng.templates["mark"].make(key="k"))
        eng.retract(m1)
        assert eng.agenda() == []  # still blocked by m2
        eng.retract(m2)
        assert len(eng.agenda()) == 1

    def test_refired_derivation_respects_refraction(self):
        eng = build(True, [NOT_RULE])
        state(eng, key="k")
        assert eng.run() == 1
        mark = eng.assert_fact(eng.templates["mark"].make(key="k"))
        eng.retract(mark)
        # The Not re-derives the same (rule, facts) key; refraction
        # must still block it.
        assert eng.run() == 0

    def test_self_template_negation_does_not_double_count(self):
        # The fact feeds the join and the Not of one chain: the
        # deeper-first assert ordering must count it exactly once.
        eng = build(True, [Rule(
            name="lone",
            lhs=[
                Pattern("ev", key=V("k")),
                Not(Pattern("ev", key=V("k"), kind="veto")),
            ],
            action=log_action,
        )])
        f = ev(eng, kind="a", key="k")
        assert len(eng.agenda()) == 1
        veto = ev(eng, kind="veto", key="k")
        # The veto event matches the first pattern too, but vetoes
        # itself; only the original event's activation must die.
        assert eng.agenda() == []
        eng.retract(veto)
        assert [a.key() for a in eng.agenda()] == [("lone", (f.fact_id,))]
        node = next(
            n for m in eng._rete._alpha_by_key.values()
            for n in m.successors if isinstance(n, NegNode)
        )
        assert all(t.neg_count >= 0 for t in node.tokens)

    def test_not_flip_on_retract_never_joins_the_retracted_fact(self):
        # Retracting the veto flips the Not back to zero; the token it
        # emits must reach a join that has already dropped the veto
        # from its index, or the rule activates on a retracted fact.
        rules = [Rule("after-veto", [
            Pattern("st", key=V("k")),
            Not(Pattern("ev", key=V("k"), kind="veto")),
            Pattern("ev", key=V("k")),
        ], log_action)]
        naive, rete = build(False, rules), build(True, rules)
        for eng in (naive, rete):
            state(eng, key="k")
            eng.retract(ev(eng, kind="veto", key="k"))
        assert rete.agenda() == naive.agenda() == []
        # The dummy, the st token at the Not, its output at the last join.
        assert rete.stats.beta_tokens_live == 3


class TestNodeSharing:
    def test_rules_on_one_pattern_share_a_join(self):
        shared = Pattern("ev", key=V("k"), val=V("v"))
        eng = build(True, [
            Rule("big", [shared, Test(lambda b: b["v"] > 3)], log_action),
            Rule("odd", [shared, Test(lambda b: b["v"] % 2)], log_action),
            Rule("any", [shared], log_action),
        ])
        (node,) = eng._rete._nodes.values()
        assert len(node.edges) == 3
        before = eng.stats.beta_tokens_created
        f = ev(eng, val=2)
        # One match, three edges: only the Test-free edge makes a token.
        assert eng.stats.beta_tokens_created - before == 1
        assert [a.key() for a in eng.agenda()] == [("any", (f.fact_id,))]

    def test_different_pattern_objects_are_not_shared(self):
        eng = build(True, [
            Rule("r1", [Pattern("ev", key=V("k"))], log_action),
            Rule("r2", [Pattern("ev", key=V("k"))], log_action),
        ])
        assert len(eng._rete._nodes) == 2

    def test_shared_head_and_deeper_same_template_join(self):
        # The head is shared and the deeper join reads the same
        # template.  With an unhashable join value both sides scan, so
        # only network-wide deepest-first propagation keeps the (f, f)
        # pair from being built twice.
        head = Pattern("ev", key=V("k"))
        rules = [
            Rule("head", [head], log_action),
            Rule("pair", [head, Pattern("ev", key=V("k"))], log_action),
        ]
        naive, rete = build(False, rules), build(True, rules)
        for eng in (naive, rete):
            ev(eng, key=["k"])
        # dummy, head activation, pair-node input, pair activation.
        assert rete.stats.beta_tokens_live == 4
        assert (
            [a.key() for a in rete.agenda()]
            == [a.key() for a in naive.agenda()]
        )

    def test_rule_added_under_a_shared_node_replays_its_edge_only(self):
        shared = Pattern("ev", key=V("k"), val=V("v"))
        eng = build(True, [Rule("all", [shared], log_action)])
        f1, f2 = ev(eng, val=1), ev(eng, val=5)
        before = eng.stats.beta_tokens_created
        eng.add_rule(
            Rule("big", [shared, Test(lambda b: b["v"] > 3)], log_action)
        )
        # The existing edge keeps its tokens: only "big" gets a new one.
        assert eng.stats.beta_tokens_created - before == 1
        assert sorted(a.key() for a in eng.agenda()) == [
            ("all", (f1.fact_id,)),
            ("all", (f2.fact_id,)),
            ("big", (f2.fact_id,)),
        ]

    def test_rule_added_under_a_shared_not_replays_passing_tokens(self):
        st_k = Pattern("st", key=V("k"))
        unmarked = Not(Pattern("mark", key=V("k")))
        eng = build(True, [Rule("r1", [st_k, unmarked], log_action)])
        state(eng, key="a")
        s2 = state(eng, key="b")
        eng.assert_fact(eng.templates["mark"].make(key="a"))
        eng.add_rule(Rule("r2", [st_k, unmarked], log_action))
        assert len(eng._rete._nodes) == 2
        assert [a.key() for a in eng.agenda()] == [
            ("r1", (s2.fact_id,)),
            ("r2", (s2.fact_id,)),
        ]


class TestMaintainedAgenda:
    def test_order_matches_naive_on_ties(self):
        rules = [
            Rule("r-low", [Pattern("ev", key=V("k"))], log_action),
            Rule("r-high", [Pattern("ev", val=V("v"))], log_action,
                 salience=5),
            Rule("r-mid", [Pattern("st", key=V("k"))], log_action),
        ]
        naive, rete = build(False, rules), build(True, rules)
        for eng in (naive, rete):
            ev(eng, key="a", val=1)
            ev(eng, key="b", val=2)
            state(eng, key="a")
        assert (
            [a.key() for a in rete.agenda()]
            == [a.key() for a in naive.agenda()]
        )

    def test_quarantined_rule_entries_are_skipped(self):
        def boom(ctx):
            raise RuntimeError("boom")

        rules = [Rule("bad", [Pattern("ev", key=V("k"))], boom)]
        eng = build(True, rules)
        ev(eng, key="a")
        ev(eng, key="b")
        assert eng.run() == 1  # first firing quarantines the rule
        assert "bad" in eng.quarantined
        assert eng.agenda() == []
        assert eng.run() == 0

    def test_clear_facts_rebuilds_the_network(self):
        eng = build(True, [JOIN_RULE])
        state(eng, lvl=0)
        ev(eng, val=5)
        assert eng.run() == 1
        eng.clear_facts()
        assert eng.agenda() == []
        state(eng, lvl=0)
        ev(eng, val=5)
        assert eng.run() == 1  # refraction memory cleared too

    def test_action_retracts_supporting_fact(self):
        # An action that retracts the support of a pending activation:
        # the rete engine must deactivate it before the next pop.
        def consume(ctx):
            log_action(ctx)
            ctx.retract(ctx["f"])

        rules = [
            Rule("consume", [Pattern("ev", kind="c", bind_as="f")],
                 consume, salience=1),
            Rule("observe", [Pattern("ev", kind="c", key=V("k"))],
                 log_action),
        ]
        naive, rete = build(False, rules), build(True, rules)
        for eng in (naive, rete):
            ev(eng, kind="c")
            eng.run()
        assert naive.context["log"] == rete.context["log"]
        assert rete.context["log"] == [("consume", (1,))]


class TestRefractionPruning:
    def test_retract_prunes_fired_keys(self):
        eng = build(True, [NOT_RULE])
        for i in range(50):
            s = state(eng, key=f"k{i}")
            eng.run()
            eng.retract(s)
        # Without pruning this is 50 entries leaked forever.
        assert eng._fired == set()
        assert eng._fired_by_fact == {}

    def test_naive_engine_prunes_too(self):
        eng = build(False, [NOT_RULE])
        s = state(eng, key="k")
        eng.run()
        assert len(eng._fired) == 1
        eng.retract(s)
        assert eng._fired == set()

    def test_live_keys_survive_unrelated_retracts(self):
        eng = build(True, [NOT_RULE])
        s1 = state(eng, key="a")
        s2 = state(eng, key="b")
        eng.run()
        eng.retract(s1)
        assert eng._fired == {("unmarked", (s2.fact_id,))}


class TestMatchStats:
    def test_stats_track_network_shape(self):
        eng = build(True, [JOIN_RULE])
        state(eng, lvl=0)
        ev(eng, val=5)
        stats = eng.match_stats()
        assert stats["alpha_activations"] >= 2
        assert stats["beta_tokens_live"] > 0
        assert stats["agenda_size"] == 1
        assert stats["match_calls"] == 2
        assert stats["match_seconds"] >= 0

    def test_naive_oracle_counts_through_the_engine(self):
        eng = build(False, [JOIN_RULE])
        state(eng, lvl=0)
        ev(eng, val=5)
        eng.run()
        stats = eng.match_stats()
        assert stats["match_calls"] >= 2
        assert stats["facts_asserted"] == 2

    def test_metric_families_exported(self):
        from repro.telemetry.metrics import MetricsRegistry, Sampler

        eng = build(True, [JOIN_RULE])
        state(eng, lvl=0)
        ev(eng, val=5)
        eng.run()
        registry = MetricsRegistry()
        Sampler(registry).sample([eng])
        names = {s["name"] for s in registry.samples()}
        assert registry.value("secpert_facts_asserted_total") == 2
        assert "secpert_alpha_activations_total" in names
        assert "secpert_beta_tokens_live" in names
        assert "secpert_agenda_size" in names


# -- lockstep equivalence ---------------------------------------------------

def lockstep_rules():
    """The lockstep rule set, and the rules ``add-rule`` ops add later.

    Several rules reuse one Pattern object, so the Rete engine shares
    their nodes: one head with different Tests, a two-pattern prefix, a
    ``Not`` under that prefix, and a deeper join on the head's template;
    ``quiet`` joins the template its ``Not`` reads.
    The late rules attach under those shared nodes after facts exist.
    """
    def consume(ctx):
        log_action(ctx)
        ctx.retract(ctx["f"])

    def mark(ctx):
        log_action(ctx)
        ctx.assert_fact(
            ctx.engine.templates["mark"].make(key=ctx["k"])
        )

    ev_kv = Pattern("ev", key=V("k"), val=V("v"))
    st_kl = Pattern("st", key=V("k"), lvl=V("l"))
    unmarked = Not(Pattern("mark", key=V("k")))
    rules = [
        Rule("thresh", [
            Pattern("ev", kind="a", key=V("k"), val=V("v")),
            Test(lambda b: b["v"] > 2),
        ], log_action),
        Rule("join", [
            ev_kv, st_kl, Test(lambda b: b["v"] >= b["l"]),
        ], mark, salience=1),
        Rule("unmarked", [
            Pattern("st", key=V("k"), lvl=V("l")),
            Not(Pattern("mark", key=V("k"))),
            Test(lambda b: b["l"] >= 0),
        ], log_action, salience=2),
        Rule("consume", [Pattern("ev", kind="c", bind_as="f")],
             consume, salience=3),
        Rule("even", [ev_kv, Test(lambda b: b["v"] % 2 == 0)], log_action),
        Rule("gap", [
            ev_kv, st_kl, Test(lambda b: b["v"] - b["l"] >= 2),
        ], log_action),
        Rule("join-unmarked", [ev_kv, st_kl, unmarked], log_action),
        Rule("pair", [ev_kv, Pattern("ev", key=V("k"), kind="b")],
             log_action),
        Rule("quiet", [
            st_kl, Not(Pattern("ev", key=V("k"), kind="b")), ev_kv,
        ], log_action),
    ]
    late = [
        Rule("late-join", [ev_kv, st_kl, Test(lambda b: b["l"] == 0)],
             log_action),
        Rule("late-unmarked", [
            ev_kv, st_kl, unmarked, Test(lambda b: b["v"] > 1),
        ], log_action),
        Rule("late-even", [ev_kv, Test(lambda b: b["v"] % 2 == 0)],
             log_action),
    ]
    return rules, late


def normalized_bindings(bindings):
    return {
        name: (f"fact:{value.fact_id}" if hasattr(value, "fact_id")
               else value)
        for name, value in bindings.items()
    }


def observe(engine):
    return {
        "agenda": [
            (a.key(), normalized_bindings(a.bindings))
            for a in engine.agenda()
        ],
        "trace": [
            (f.rule_name, f.fact_ids, normalized_bindings(f.bindings))
            for f in engine.fire_trace
        ],
        "wm": sorted(
            (f.fact_id, f.name, repr(sorted(f.items())))
            for f in engine.facts()
        ),
        "fired": engine._fired,
        "log": list(engine.context.get("log", ())),
        "quarantined": dict(engine.quarantined),
    }


#: Keys include an unhashable value, so joins also take the scan paths.
KEYS = st.sampled_from(["k1", "k2", ["k1"]])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("assert-ev"),
                  st.sampled_from(["a", "b", "c"]),
                  KEYS,
                  st.integers(0, 4)),
        st.tuples(st.just("assert-st"), KEYS, st.integers(0, 3)),
        st.tuples(st.just("retract"), st.integers(0, 7)),
        st.tuples(st.just("run")),
        st.tuples(st.just("add-rule")),
    ),
    min_size=1, max_size=24,
)


class TestLockstepEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(OPS)
    def test_random_interleavings_match_naive(self, ops):
        setups = [lockstep_rules(), lockstep_rules()]
        engines = [build(False, setups[0][0]), build(True, setups[1][0])]
        asserted = [[], []]
        for op in ops:
            for index, engine in enumerate(engines):
                if op[0] == "assert-ev":
                    _, kind, key, val = op
                    asserted[index].append(
                        ev(engine, kind=kind, key=key, val=val)
                    )
                elif op[0] == "assert-st":
                    _, key, lvl = op
                    asserted[index].append(
                        state(engine, key=key, lvl=lvl)
                    )
                elif op[0] == "retract":
                    live = [f for f in asserted[index]
                            if f.fact_id in engine._facts]
                    if live:
                        engine.retract(live[op[1] % len(live)])
                elif op[0] == "add-rule":
                    late = setups[index][1]
                    if late:
                        engine.add_rule(late.pop(0))
                else:
                    engine.run()
            naive, rete = observe(engines[0]), observe(engines[1])
            assert naive == rete
