"""Facts no alpha memory accepts are skipped, and nothing observable moves.

Secpert asserts one fact per Harrier event, runs the engine and
retracts it.  When the Rete network says no alpha memory takes the
fact and no activation is pending, ``analyze`` skips all three; the
fact still takes its ``f-N`` id and recency and counts as asserted.
The naive oracle (``tests/oracles``) accepts every fact, so comparing
the two shows the skip is invisible: fact ids, fire traces, counters
and evidence derivations are bit-identical.
"""

import json

from repro.expert import InferenceEngine, Not, Pattern, Rule, Template, V
from repro.fleet import workload_refs
from repro.harrier.events import (
    DataTransferEvent,
    ResourceAccessEvent,
    ResourceId,
)
from repro.kernel.process import ResourceKind
from repro.secpert.secpert import Secpert
from repro.taint.tags import DataSource, TagSet
from repro.telemetry.metrics import MetricsRegistry, Sampler
from tests.oracles import naive_matcher

BINARY = TagSet.of(DataSource.BINARY, "/bin/trojan")


def _open(time):
    return ResourceAccessEvent(
        pid=1, time=time, frequency=1, address="0x10",
        call_name="SYS_open",
        resource=ResourceId(ResourceKind.FILE, "/tmp/log"), origin=BINARY,
    )


def _write(time):
    return DataTransferEvent(
        pid=1, time=time, frequency=1, address="0x20",
        call_name="SYS_write", direction="write",
        resource=ResourceId(ResourceKind.FILE, "/tmp/log"),
        data_tags=BINARY, resource_origin=BINARY, length=4,
    )


def _feed(events, naive):
    if naive:
        with naive_matcher():
            secpert = Secpert()
    else:
        secpert = Secpert()
    skipped = []
    skip = secpert.engine.skip_fact
    secpert.engine.skip_fact = lambda fact: skipped.append(skip(fact))
    results = [secpert.analyze(event) for event in events]
    registry = MetricsRegistry()
    Sampler(registry).sample([secpert.engine])
    return secpert, registry, skipped, results


class TestSecpertSkips:
    EVENTS = [_open(1), _write(2), _open(3), _open(4), _write(5)]

    def test_skipped_facts_keep_ids_counts_and_evidence(self):
        rete, rete_reg, skipped, rete_out = _feed(self.EVENTS, naive=False)
        naive, naive_reg, naive_skipped, naive_out = _feed(
            self.EVENTS, naive=True)
        # The opens reach no production: skipped, ids 1, 3 and 4.
        assert [fact.fact_id for fact in skipped] == [1, 3, 4]
        assert [fact.recency for fact in skipped] == [1, 3, 4]
        assert naive_skipped == []
        assert rete_out[0] == [] and type(rete_out[0]) is list
        fired = [(f.rule_name, f.fact_ids) for f in rete.engine.fire_trace]
        assert fired == [(f.rule_name, f.fact_ids)
                         for f in naive.engine.fire_trace]
        assert {ids for _, ids in fired} == {(2,), (5,)}
        assert rete.engine.stats.facts_asserted == 5
        assert naive.engine.stats.facts_asserted == 5
        assert rete_reg.value("secpert_facts_asserted_total") == 5
        assert naive_reg.value("secpert_facts_asserted_total") == 5
        assert rete.engine._next_fact_id == naive.engine._next_fact_id == 6
        assert [w.render() for w in rete.warnings] == \
            [w.render() for w in naive.warnings]
        assert rete.engine.facts() == [] == naive.engine.facts()

    def test_evidence_derivation_ids_are_unchanged(self):
        from repro.telemetry.provenance import ProvenanceRecorder

        trails = {}
        for naive in (False, True):
            secpert, _, _, _ = _feed([], naive)
            secpert.attach_provenance(ProvenanceRecorder())
            for event in self.EVENTS:
                secpert.analyze(event)
            trails[naive] = [w.evidence["derivation"]
                             for w in secpert.warnings]
        assert trails[False] == trails[True]
        assert trails[False] and trails[False][-1][0]["facts"] == ["f-5"]


class TestEngineSkip:
    def _engine(self):
        engine = InferenceEngine()
        engine.define_template(Template.define("t", "a", "b"))
        engine.add_rule(Rule(
            name="r", lhs=[Pattern("t", a=1, b=V("b"))],
            action=lambda ctx: None,
        ))
        return engine

    def test_accepts_follows_the_alpha_memories(self):
        engine = self._engine()
        t = engine.templates["t"]
        assert engine.accepts(t.make(a=1, b=0))
        assert not engine.accepts(t.make(a=2, b=0))

    def test_a_pending_activation_is_never_skipped_past(self):
        engine = self._engine()
        t = engine.templates["t"]
        engine.assert_fact(t.make(a=1, b=0))  # activation, not yet run
        assert engine.accepts(t.make(a=2, b=0))

    def test_naive_oracle_accepts_everything(self):
        with naive_matcher():
            engine = self._engine()
        assert engine.accepts(engine.templates["t"].make(a=2, b=0))

    def test_not_rules_see_no_difference(self):
        """A fact a ``Not`` is waiting on is accepted (its alpha memory
        takes it); others are skipped without firing anything."""
        runs = {}
        for naive in (False, True):
            if naive:
                with naive_matcher():
                    engine = self._negated()
            else:
                engine = self._negated()
            t = engine.templates["t"]
            for a in (5, 2, 5, 1, 5):
                fact = t.make(a=a, b=0)
                if engine.accepts(fact):
                    engine.assert_fact(fact)
                    engine.run()
                    engine.retract(fact)
                else:
                    engine.skip_fact(fact)
            runs[naive] = [(f.rule_name, f.fact_ids)
                           for f in engine.fire_trace]
        assert runs[False] == runs[True] and runs[False]

    @staticmethod
    def _negated():
        engine = InferenceEngine()
        engine.define_template(Template.define("t", "a", "b"))
        engine.add_rule(Rule(
            name="lonely", lhs=[Pattern("t", a=1, b=V("b")),
                                Not(Pattern("t", a=2, b=V("b")))],
            action=lambda ctx: None,
        ))
        return engine


def test_table6_evidence_unchanged_and_facts_skipped():
    """Every Table 6 workload: the same report, evidence included, with
    and without skipping, and the rete engine did skip facts."""
    skipped_total = 0
    for ref in workload_refs(["6"]):
        workload = ref.resolve()
        reports = {}
        for naive in (False, True):
            if naive:
                with naive_matcher():
                    secpert = Secpert()
            else:
                secpert = Secpert()
                skipped = []
                skip = secpert.engine.skip_fact
                secpert.engine.skip_fact = \
                    lambda fact, skip=skip: skipped.append(skip(fact))
            report = workload.run(analyzer=secpert)
            evidenced = [w.evidence for w in report.warnings]
            assert all(evidenced), ref.name
            reports[naive] = (
                json.dumps(report.to_dict(), sort_keys=True, default=str),
                secpert.engine.stats.facts_asserted,
            )
        assert reports[False] == reports[True], ref.name
        skipped_total += len(skipped)
    assert skipped_total > 0
