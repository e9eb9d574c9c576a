"""Secpert's templates read Harrier's events exactly as the copy did.

Each template in ``repro.secpert.facts`` reads its slots from the event
in place; ``tests.oracles.facts.event_to_fact`` is the slot-by-slot copy
it replaced.  Over every event of the 62 registry workloads, a fact
from each reads the same value, of the same type, in every slot, and
``render_fact`` prints the same CLIPS text for both.
"""

import pytest

from repro.api import Session
from repro.expert.clips_format import render_fact
from repro.fleet import workload_refs
from repro.secpert.facts import ALL_TEMPLATES, fact_of
from tests.oracles.facts import event_to_fact

REFS = workload_refs()


@pytest.fixture(scope="module")
def session():
    return Session()


def _check(event):
    fact = fact_of(event)
    copy = event_to_fact(event)
    assert fact.record is event
    assert fact.name == copy.name
    read, copied = fact.items(), copy.items()
    assert [slot for slot, _ in read] == [slot for slot, _ in copied]
    for (slot, value), (_, expected) in zip(read, copied):
        assert value == expected, (fact.name, slot)
        assert type(value) is type(expected), (fact.name, slot)
    assert render_fact(fact) == render_fact(copy)
    return fact.name


def test_sweep_is_the_62_workloads():
    assert len(REFS) == 62


@pytest.mark.parametrize("ref", REFS, ids=[r.name for r in REFS])
def test_every_slot_reads_as_the_copy(session, ref):
    report = session.run_workload(ref.resolve())
    for event in report.events:
        _check(event)


def test_the_sweep_reaches_every_template(session):
    seen = set()
    for ref in REFS:
        for event in session.run_workload(ref.resolve()).events:
            seen.add(_check(event))
    assert seen == {t.name for t in ALL_TEMPLATES}
