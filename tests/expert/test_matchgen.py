"""Generated pattern matchers against the interpreted reference.

Every Rete node matches with code generated for its pattern's shape
(``repro.expert.matchgen``); the interpreted reading of a pattern is the
oracle in ``tests/oracles/matcher.py``.  They must agree on every fact
and binding set — result, key order, and the fact bound by ``bind_as`` —
and the shape cache must stay bounded and observable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.expert import P, Pattern, Template, V
from repro.expert import matchgen
from repro.expert.matchgen import MatcherCache
from repro.isa import assemble
from tests.oracles.matcher import interpreted_match

SLOTS = ("a", "b", "c", "d")
T = Template.define("t", *SLOTS)
OTHER = Template.define("u", "a", "z")

VALUES = st.sampled_from([0, 1, 2, "x", "y", None, (1,), 1.0, True])
NAMES = st.sampled_from(["p", "q", "r"])


def _pred2(value, bindings):
    return value != bindings.get("q", "missing")


def _pred1(value):
    return value in (0, 1, "x")


CONSTRAINTS = st.one_of(
    VALUES,
    NAMES.map(V),
    st.sampled_from([P(_pred2), P(_pred1), P(bool)]),
)


@st.composite
def patterns(draw):
    slots = draw(st.lists(st.sampled_from(SLOTS + ("ghost",)),
                          unique=True, max_size=5))
    template = draw(st.sampled_from(["t", "t", "u"]))
    bind_as = draw(st.sampled_from([None, None, "f", "p"]))
    constraints = {slot: draw(CONSTRAINTS) for slot in slots}
    return Pattern(template, bind_as=bind_as, **constraints)


FACTS = st.one_of(
    st.fixed_dictionaries({s: VALUES for s in SLOTS}).map(
        lambda values: T.make(**values)),
    st.fixed_dictionaries({"a": VALUES, "z": VALUES}).map(
        lambda values: OTHER.make(**values)),
)
BINDINGS = st.dictionaries(NAMES, VALUES, max_size=3)


@settings(max_examples=600, deadline=None)
@given(patterns(), FACTS, BINDINGS)
def test_generated_equals_interpreted(pattern, fact, bindings):
    want = interpreted_match(pattern, fact, bindings)
    got = pattern.match(fact, bindings)
    if want is None:
        assert got is None
        return
    assert got == want
    assert list(got) == list(want)  # key order
    if pattern.bind_as is not None:
        assert got[pattern.bind_as] is fact
    assert got is not bindings


def test_predicate_sees_variables_bound_before_it():
    seen = []

    def probe(value, bindings):
        seen.append(dict(bindings))
        return True

    fact = T.make(a=1, b=2, c=3, d=4)
    pattern = Pattern("t", a=V("p"), b=P(probe), c=V("q"))
    assert pattern.match(fact, {"r": 0}) == {"r": 0, "p": 1, "q": 3}
    assert seen == [{"r": 0, "p": 1}]


def test_repeated_variable_compares():
    pattern = Pattern("t", a=V("p"), b=V("p"))
    assert pattern.match(T.make(a=1, b=1), {}) == {"p": 1}
    assert pattern.match(T.make(a=1, b=2), {}) is None


def test_predicate_error_propagates():
    def broken(value, bindings):
        raise TypeError("inside the predicate")

    with pytest.raises(TypeError, match="inside the predicate"):
        Pattern("t", a=P(broken)).match(T.make(a=1), {})


class TestShapeCache:
    def test_same_shape_compiles_once(self):
        cache = MatcherCache()
        bound = frozenset()
        for literal in ("open", "write", 7):
            pattern = Pattern("t", a=literal, b=V("p"))
            steps, consts = matchgen._steps(pattern, bound)
            make = cache.factory_for((steps, False, False))
            fn = make(*consts)
            assert fn(T.make(a=literal, b=2), {}) == {"p": 2}
            assert fn(T.make(a="other", b=2), {}) is None
        assert cache.stats() == {"shapes": 1, "compiles": 1,
                                 "evictions": 0, "built": 3}

    def test_bound_is_least_recently_used(self):
        cache = MatcherCache(max_entries=2)
        shapes = [((("literal",),) * n, False, False) for n in (1, 2, 3)]
        first = cache.factory_for(shapes[0])
        cache.factory_for(shapes[1])
        assert cache.factory_for(shapes[0]) is first  # now most recent
        cache.factory_for(shapes[2])  # evicts shapes[1]
        assert cache.stats() == {"shapes": 2, "compiles": 3,
                                 "evictions": 1, "built": 4}
        assert cache.factory_for(shapes[0]) is first
        cache.factory_for(shapes[1])
        assert cache.stats()["compiles"] == 4

    def test_rebuilt_secpert_compiles_nothing(self):
        from repro.secpert.secpert import Secpert

        Secpert()
        before = matchgen.MATCHER_CACHE.stats()
        Secpert()
        after = matchgen.MATCHER_CACHE.stats()
        assert after["compiles"] == before["compiles"]
        assert after["built"] > before["built"]

    def test_gauges_land_in_the_run_registry(self):
        hth = HTH(options=RunOptions(metrics=True))
        hth.run(assemble("/bin/t", "main:\n    mov eax, 0\n    ret\n"))
        samples = {
            s["name"]: s["value"] for s in hth.telemetry.metrics.samples()
            if s["name"].startswith("secpert_matcher")
        }
        assert set(samples) == set(matchgen.GAUGES)
        stats = matchgen.MATCHER_CACHE.stats()
        for gauge, key in matchgen.GAUGES.items():
            assert samples[gauge] == stats[key], gauge
        assert samples["secpert_matcher_shapes"] >= 1
