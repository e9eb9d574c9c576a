"""Inference engine tests: working memory, agenda, salience, refraction,
fire trace, data-driven chaining."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.expert import (
    EngineError,
    InferenceEngine,
    Pattern,
    Rule,
    Template,
    Test,
    V,
)


@pytest.fixture
def engine():
    eng = InferenceEngine()
    eng.define_template(Template.define("item", "kind", "value"))
    eng.define_template(Template.define("result", "value"))
    return eng


def item(engine, kind, value=0):
    return engine.assert_fact(
        engine.templates["item"].make(kind=kind, value=value)
    )


class TestWorkingMemory:
    def test_assert_assigns_ids(self, engine):
        a = item(engine, "a")
        b = item(engine, "b")
        assert (a.fact_id, b.fact_id) == (1, 2)
        assert b.recency > a.recency

    def test_assert_unknown_template_rejected(self, engine):
        ghost = Template.define("ghost", "x")
        with pytest.raises(EngineError):
            engine.assert_fact(ghost.make(x=1))

    def test_double_assert_rejected(self, engine):
        fact = item(engine, "a")
        with pytest.raises(EngineError):
            engine.assert_fact(fact)

    def test_retract(self, engine):
        fact = item(engine, "a")
        engine.retract(fact)
        assert engine.facts() == []
        with pytest.raises(EngineError):
            engine.retract(fact)

    def test_facts_filter_by_template(self, engine):
        item(engine, "a")
        engine.assert_fact(engine.templates["result"].make(value=1))
        assert len(engine.facts("item")) == 1
        assert len(engine.facts("result")) == 1
        assert len(engine.facts()) == 2

    def test_duplicate_template_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.define_template(Template.define("item", "x"))

    def test_duplicate_rule_rejected(self, engine):
        rule = Rule("r", [Pattern("item")], lambda ctx: None)
        engine.add_rule(rule)
        with pytest.raises(EngineError):
            engine.add_rule(Rule("r", [Pattern("item")], lambda ctx: None))


class TestFiring:
    def test_rule_fires_per_matching_fact(self, engine):
        fired = []
        engine.add_rule(
            Rule(
                "watch",
                [Pattern("item", kind="a", value=V("v"))],
                lambda ctx: fired.append(ctx["v"]),
            )
        )
        item(engine, "a", 1)
        item(engine, "b", 2)
        item(engine, "a", 3)
        count = engine.run()
        assert count == 2
        assert sorted(fired) == [1, 3]

    def test_refraction_prevents_refire(self, engine):
        fired = []
        engine.add_rule(
            Rule("once", [Pattern("item", kind="a")],
                 lambda ctx: fired.append(1))
        )
        item(engine, "a")
        engine.run()
        engine.run()  # no new facts -> nothing new fires
        assert len(fired) == 1

    def test_new_fact_reactivates(self, engine):
        fired = []
        engine.add_rule(
            Rule("watch", [Pattern("item", kind="a")],
                 lambda ctx: fired.append(1))
        )
        item(engine, "a")
        engine.run()
        item(engine, "a")
        engine.run()
        assert len(fired) == 2

    def test_salience_orders_firing(self, engine):
        order = []
        engine.add_rule(
            Rule("low", [Pattern("item")], lambda ctx: order.append("low"),
                 salience=0)
        )
        engine.add_rule(
            Rule("high", [Pattern("item")], lambda ctx: order.append("high"),
                 salience=10)
        )
        item(engine, "a")
        engine.run()
        assert order == ["high", "low"]

    def test_recency_breaks_ties(self, engine):
        order = []
        engine.add_rule(
            Rule(
                "watch",
                [Pattern("item", value=V("v"))],
                lambda ctx: order.append(ctx["v"]),
            )
        )
        item(engine, "a", 1)
        item(engine, "a", 2)
        engine.run()
        assert order == [2, 1]  # most recent first

    def test_chaining_assert_from_action(self, engine):
        results = []
        engine.add_rule(
            Rule(
                "derive",
                [Pattern("item", kind="a", value=V("v"))],
                lambda ctx: ctx.assert_fact(
                    engine.templates["result"].make(value=ctx["v"] + 1)
                ),
            )
        )
        engine.add_rule(
            Rule(
                "collect",
                [Pattern("result", value=V("v"))],
                lambda ctx: results.append(ctx["v"]),
            )
        )
        item(engine, "a", 10)
        engine.run()
        assert results == [11]

    def test_retract_from_action_stops_matching(self, engine):
        fired = []

        def consume(ctx):
            fired.append(1)
            ctx.retract(ctx["f"])

        engine.add_rule(
            Rule("consume", [Pattern("item", bind_as="f")], consume)
        )
        item(engine, "a")
        engine.run()
        assert len(fired) == 1
        assert engine.facts() == []

    def test_fire_limit_raises(self, engine):
        def regenerate(ctx):
            ctx.retract(ctx["f"])
            item(engine, "a")

        engine.add_rule(
            Rule("loop", [Pattern("item", bind_as="f")], regenerate)
        )
        item(engine, "a")
        with pytest.raises(EngineError):
            engine.run(limit=25)

    def test_fire_limit_reached_by_a_quiescent_run(self, engine):
        engine.add_rule(Rule("once", [Pattern("item")], lambda ctx: None))
        item(engine, "a")
        assert engine.run(limit=1) == 1
        assert engine.agenda() == []

    def test_fire_trace_records(self, engine):
        engine.add_rule(
            Rule("watch", [Pattern("item", kind=V("k"))], lambda ctx: None)
        )
        fact = item(engine, "a")
        engine.run()
        assert len(engine.fire_trace) == 1
        fired = engine.fire_trace[0]
        assert fired.rule_name == "watch"
        assert fired.fact_ids == (fact.fact_id,)
        assert fired.bindings == {"k": "a"}
        assert "watch" in str(fired)

    def test_reset_clears_everything(self, engine):
        engine.add_rule(
            Rule("watch", [Pattern("item")], lambda ctx: None)
        )
        item(engine, "a")
        engine.run()
        engine.reset()
        assert engine.facts() == []
        assert engine.fire_trace == []

    def test_context_shared_with_actions(self, engine):
        engine.context["log"] = []
        engine.add_rule(
            Rule(
                "watch",
                [Pattern("item")],
                lambda ctx: ctx.context["log"].append("hit"),
            )
        )
        item(engine, "a")
        engine.run()
        assert engine.context["log"] == ["hit"]

    def test_test_element_in_rule(self, engine):
        fired = []
        engine.add_rule(
            Rule(
                "big",
                [Pattern("item", value=V("v")), Test(lambda b: b["v"] > 5)],
                lambda ctx: fired.append(ctx["v"]),
            )
        )
        item(engine, "a", 3)
        item(engine, "a", 9)
        engine.run()
        assert fired == [9]


class TestAgendaProperties:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    def test_refraction_fires_exactly_once_per_fact(self, values):
        engine = InferenceEngine()
        engine.define_template(Template.define("item", "value"))
        fired = []
        engine.add_rule(
            Rule(
                "watch",
                [Pattern("item", value=V("v"))],
                lambda ctx: fired.append(ctx["v"]),
            )
        )
        for v in values:
            engine.assert_fact(engine.templates["item"].make(value=v))
        engine.run()
        assert sorted(fired) == sorted(values)

    @given(st.permutations([0, 1, 2, 3]))
    def test_salience_total_order(self, saliences):
        engine = InferenceEngine()
        engine.define_template(Template.define("go",))
        order = []
        for s in saliences:
            engine.add_rule(
                Rule(
                    f"rule{s}",
                    [Pattern("go")],
                    (lambda s=s: (lambda ctx: order.append(s)))(),
                    salience=s,
                )
            )
        engine.assert_fact(engine.templates["go"].make())
        engine.run()
        assert order == sorted(saliences, reverse=True)
