"""Pattern / variable / test / negation matching tests."""

import pytest

from repro.expert import Not, P, Pattern, Template, Test, V
from tests.oracles.matcher import match_lhs


@pytest.fixture
def access():
    return Template.define("access", "call", "resource", "severity")


def facts_of(template, *value_dicts):
    out = []
    for i, values in enumerate(value_dicts, start=1):
        fact = template.make(**values)
        fact.fact_id = i
        fact.recency = i
        out.append(fact)
    return out


class TestPatternMatch:
    def test_literal_match(self, access):
        fact = access.make(call="open", resource="/a", severity=1)
        pattern = Pattern("access", call="open")
        assert pattern.match(fact, {}) == {}

    def test_literal_mismatch(self, access):
        fact = access.make(call="open", resource="/a", severity=1)
        assert Pattern("access", call="read").match(fact, {}) is None

    def test_wrong_template(self, access):
        other = Template.define("other", "x")
        fact = other.make(x=1)
        assert Pattern("access", call="open").match(fact, {}) is None

    def test_unknown_slot_never_matches(self, access):
        fact = access.make(call="open")
        assert Pattern("access", ghost=1).match(fact, {}) is None

    def test_variable_binds(self, access):
        fact = access.make(call="open", resource="/a")
        result = Pattern("access", resource=V("r")).match(fact, {})
        assert result == {"r": "/a"}

    def test_bound_variable_must_agree(self, access):
        fact = access.make(call="open", resource="/a")
        pattern = Pattern("access", resource=V("r"))
        assert pattern.match(fact, {"r": "/a"}) == {"r": "/a"}
        assert pattern.match(fact, {"r": "/b"}) is None

    def test_predicate_one_arg(self, access):
        fact = access.make(call="open", severity=3)
        pattern = Pattern("access", severity=P(lambda v: v > 2))
        assert pattern.match(fact, {}) is not None

    def test_predicate_with_bindings(self, access):
        fact = access.make(call="open", severity=3)
        pattern = Pattern(
            "access", severity=P(lambda v, b: v > b["floor"])
        )
        assert pattern.match(fact, {"floor": 2}) is not None
        assert pattern.match(fact, {"floor": 5}) is None

    def test_predicate_error_is_not_swallowed(self, access):
        # A TypeError raised *inside* a two-arg predicate used to be
        # mistaken for an arity mismatch and silently retried with one
        # arg; arity is now resolved from the signature up front.
        fact = access.make(call="open", severity=3)
        pattern = Pattern(
            "access", severity=P(lambda v, b: v > b["floor"] + None)
        )
        with pytest.raises(TypeError):
            pattern.match(fact, {"floor": 2})

    def test_predicate_builtin_without_signature(self, access):
        # Some C callables expose no signature; the legacy probe still
        # resolves them (bool is value-only).
        fact = access.make(call="open", severity=3)
        assert Pattern("access", severity=P(bool)).match(fact, {}) is not None
        fact0 = access.make(call="open", severity=0)
        assert Pattern("access", severity=P(bool)).match(fact0, {}) is None

    def test_predicate_varargs_gets_both(self, access):
        seen = []

        def predicate(*args):
            seen.append(len(args))
            return True

        fact = access.make(call="open", severity=3)
        result = Pattern("access", severity=P(predicate)).match(fact, {})
        assert result is not None
        assert seen == [2]

    def test_bind_as_exposes_fact(self, access):
        fact = access.make(call="open")
        result = Pattern("access", bind_as="f").match(fact, {})
        assert result["f"] is fact

    def test_original_bindings_not_mutated(self, access):
        fact = access.make(call="open", resource="/a")
        original = {}
        Pattern("access", resource=V("r")).match(fact, original)
        assert original == {}

    def test_predicate_sees_variables_bound_before_it(self, access):
        seen = []

        def probe(value, bindings):
            seen.append(dict(bindings))
            return True

        fact = access.make(call="open", resource="/a", severity=3)
        pattern = Pattern("access", call=V("c"), resource=P(probe),
                          severity=V("s"))
        assert pattern.match(fact, {"x": 0}) == {"x": 0, "c": "open",
                                                 "s": 3}
        assert seen == [{"x": 0, "c": "open"}]

    def test_repeated_variable_compares(self, access):
        pattern = Pattern("access", call=V("v"), resource=V("v"))
        assert pattern.match(access.make(call="a", resource="a"), {}) \
            == {"v": "a"}
        assert pattern.match(access.make(call="a", resource="b"), {}) \
            is None

    def test_key_order(self, access):
        # Incoming bindings, then new variables in slot order, then
        # bind_as — FiredRule.bindings and reports depend on it.
        fact = access.make(call="open", resource="/a", severity=3)
        pattern = Pattern("access", bind_as="f", severity=V("s"),
                          call=V("c"), resource=V("r"))
        result = pattern.match(fact, {"z": 1, "r": "/a"})
        assert list(result) == ["z", "r", "s", "c", "f"]
        assert result["f"] is fact


class TestMatchLhs:
    def test_single_pattern_all_matches(self, access):
        facts = facts_of(
            access,
            {"call": "open", "resource": "/a"},
            {"call": "open", "resource": "/b"},
            {"call": "read", "resource": "/c"},
        )
        results = match_lhs([Pattern("access", call="open",
                                     resource=V("r"))], facts)
        assert {r["bindings"]["r"] for r in results} == {"/a", "/b"}

    def test_join_on_shared_variable(self, access):
        facts = facts_of(
            access,
            {"call": "open", "resource": "/a"},
            {"call": "write", "resource": "/a"},
            {"call": "write", "resource": "/b"},
        )
        lhs = [
            Pattern("access", call="open", resource=V("r")),
            Pattern("access", call="write", resource=V("r")),
        ]
        results = match_lhs(lhs, facts)
        assert len(results) == 1
        assert results[0]["bindings"]["r"] == "/a"
        assert [f["call"] for f in results[0]["facts"]] == ["open", "write"]

    def test_test_element_filters(self, access):
        facts = facts_of(
            access,
            {"call": "open", "severity": 1},
            {"call": "open", "severity": 5},
        )
        lhs = [
            Pattern("access", severity=V("s")),
            Test(lambda b: b["s"] > 3),
        ]
        results = match_lhs(lhs, facts)
        assert len(results) == 1
        assert results[0]["bindings"]["s"] == 5

    def test_not_element(self, access):
        facts = facts_of(access, {"call": "open", "resource": "/a"})
        lhs = [
            Pattern("access", resource=V("r")),
            Not(Pattern("access", call="write", resource=V("r"))),
        ]
        assert len(match_lhs(lhs, facts)) == 1
        facts2 = facts_of(
            access,
            {"call": "open", "resource": "/a"},
            {"call": "write", "resource": "/a"},
        )
        # "open /a" now has a matching write -> blocked; but the write fact
        # itself (as the first pattern) has a write too -> also blocked.
        assert match_lhs(lhs, facts2) == []

    def test_bad_element_type_raises(self, access):
        with pytest.raises(TypeError):
            match_lhs(["nonsense"], [])

    def test_empty_lhs_matches_once(self, access):
        assert len(match_lhs([], [])) == 1
