"""Admission control under a fake clock: every decision deterministic.

The daemon's bounded-memory and fairness promises reduce to these unit
properties: the queue cap is hard, tenant buckets refill exactly at
their configured rates, tick budgets price big runs proportionally, and
every rejection carries a stable reason string plus a metrics count.
"""

import pytest

from repro.serve.admission import (
    REASON_QUEUE_FULL,
    REASON_RATE_LIMITED,
    REASON_SHUTTING_DOWN,
    REASON_TICK_BUDGET,
    AdmissionController,
    TokenBucket,
)
from repro.telemetry.metrics import MetricsRegistry


def admit(admission, tenant, max_ticks):
    """The daemon's path for a submission that will execute: the rate
    precheck, then a queue slot and the tick charge."""
    return admission.precheck(tenant) or admission.claim_slot(
        tenant, max_ticks
    )


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refusal(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False
        ]

    def test_refills_at_rate_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_take()
        clock.advance(1.0)          # +2 tokens
        assert bucket.tokens == pytest.approx(2.0)
        clock.advance(100.0)        # way past burst: capped
        assert bucket.tokens == pytest.approx(4.0)

    def test_cost_weighted_take(self):
        bucket = TokenBucket(rate=1.0, burst=10.0, clock=FakeClock())
        assert bucket.try_take(cost=7.0)
        assert not bucket.try_take(cost=4.0)
        assert bucket.try_take(cost=3.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)

    @pytest.mark.parametrize(
        "cost", [-1.0, -1e12, float("nan"), float("inf")]
    )
    def test_rejects_negative_or_nonfinite_cost(self, cost):
        bucket = TokenBucket(rate=10.0, burst=100.0, clock=FakeClock())
        assert bucket.try_take(100.0)
        with pytest.raises(ValueError, match="token cost"):
            bucket.try_take(cost)
        # A refused take never adds tokens.
        assert bucket.tokens == 0.0


class TestQueueBound:
    def test_queue_limit_is_hard(self):
        admission = AdmissionController(queue_limit=2)
        assert admit(admission, "t", 1000) is None
        assert admit(admission, "t", 1000) is None
        assert admit(admission, "t", 1000) == REASON_QUEUE_FULL

    def test_release_frees_a_slot(self):
        admission = AdmissionController(queue_limit=1)
        assert admit(admission, "t", 1) is None
        assert admit(admission, "t", 1) == REASON_QUEUE_FULL
        admission.release()
        assert admit(admission, "t", 1) is None

    def test_release_never_goes_negative(self):
        admission = AdmissionController(queue_limit=1)
        admission.release()
        assert admission.depth == 0

    def test_queue_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=0)


class TestTenantMeters:
    def _admission(self, **kwargs):
        clock = FakeClock()
        admission = AdmissionController(
            queue_limit=1000, clock=clock, **kwargs
        )
        return admission, clock

    def test_rate_none_runs_wide_open(self):
        admission, _ = self._admission()
        for _ in range(100):
            assert admit(admission, "hot", 10 ** 9) is None

    def test_submission_rate_limit_per_tenant(self):
        admission, clock = self._admission(rate=1.0, burst=2.0)
        assert admit(admission, "a", 1) is None
        assert admit(admission, "a", 1) is None
        assert admit(admission, "a", 1) == REASON_RATE_LIMITED
        # a hot tenant does not starve a quiet one
        assert admit(admission, "b", 1) is None
        clock.advance(1.0)
        assert admit(admission, "a", 1) is None

    def test_tick_budget_prices_compute_not_requests(self):
        admission, clock = self._admission(
            tick_rate=1000.0, tick_burst=5000.0
        )
        # one huge submission drains what five small ones would
        assert admit(admission, "a", 5000) is None
        assert admit(admission, "a", 100) == REASON_TICK_BUDGET
        # small submissions from another tenant unaffected
        assert admit(admission, "b", 100) is None
        clock.advance(1.0)  # +1000 ticks of allowance
        assert admit(admission, "a", 900) is None

    def test_negative_ticks_cannot_refill_the_budget(self):
        admission, _ = self._admission(tick_rate=10.0, tick_burst=100.0)
        assert admit(admission, "a", 100) is None
        with pytest.raises(ValueError):
            admit(admission, "a", -10 ** 12)
        assert admit(admission, "a", 1) == REASON_TICK_BUDGET

    def test_rate_checked_before_tick_budget(self):
        admission, _ = self._admission(
            rate=1.0, burst=1.0, tick_rate=10.0, tick_burst=10.0
        )
        assert admit(admission, "a", 10 ** 6) == REASON_TICK_BUDGET
        assert admit(admission, "a", 1) == REASON_RATE_LIMITED


class TestTenantTable:
    """Tenant state exists only while it could change an answer."""

    def test_no_state_without_a_meter(self):
        admission = AdmissionController(queue_limit=10_000)
        for n in range(100):
            assert admit(admission, f"t{n}", 1) is None
        assert admission._tenants == {}

    def test_distinct_names_leave_a_small_table(self):
        clock = FakeClock()
        admission = AdmissionController(
            queue_limit=10, rate=1.0, burst=1.0, clock=clock
        )
        for n in range(5000):
            assert admission.precheck(f"tenant-{n}") is None
            clock.advance(0.01)
        # A tenant refills within 1 s (100 calls); only those are kept.
        assert len(admission._tenants) <= 200

    def test_seeded_sequence_keeps_its_answers(self):
        """400 seeded submissions from three hot tenants and a stream of
        one-off ones; the answers are those of a table that never
        drops a tenant (recorded before tenants were dropped)."""
        import random

        rng = random.Random(11)
        clock = FakeClock(0.0)
        admission = AdmissionController(
            queue_limit=8, rate=1.0, burst=2.0,
            tick_rate=1000.0, tick_burst=2500.0, clock=clock,
        )
        code = {None: ".", REASON_RATE_LIMITED: "r",
                REASON_QUEUE_FULL: "q", REASON_TICK_BUDGET: "t"}
        answers = []
        for step in range(400):
            clock.advance(rng.choice((0.0, 0.0, 0.1, 0.3, 1.0, 2.5)))
            tenant = rng.choice(("a", "b", "c", f"t{step}"))
            verdict = admission.precheck(tenant)
            if verdict is None:
                verdict = admission.claim_slot(
                    tenant, rng.choice((100, 800, 2000))
                )
            answers.append(code[verdict])
            if admission.depth and rng.random() < 0.8:
                admission.release()
        assert "".join(answers) == (
        ".................qrr.r.t.......r......t.......rt...tr..........."
        "........r......................r....q..t...t.q...rrr.r.r........"
        "..r.....t............rr.............qq..q..q....q.q..........r.."
        ".......q.r..q................t...t.......r....t.r....rt..r..r..r"
        "r.tr...............r.......t.t......trt..............t.r......r."
        ".................trr..r.....t...........................q......."
        ".rr.........q..."
        )
        assert len(admission._tenants) < 100


class TestTwoPhaseAdmission:
    """The precheck/claim_slot split the daemon orders around the
    verdict cache: rate is metered before any per-submission compute
    (hits included), slots and tick budget only on real execution."""

    def test_precheck_charges_rate_but_claims_no_slot(self):
        admission = AdmissionController(
            queue_limit=5, rate=1.0, burst=2.0, clock=FakeClock()
        )
        assert admission.precheck("t") is None
        assert admission.precheck("t") is None
        assert admission.depth == 0
        assert admission.precheck("t") == REASON_RATE_LIMITED

    def test_claim_slot_charges_depth_and_ticks_only(self):
        admission = AdmissionController(
            queue_limit=1, rate=1.0, burst=1.0,
            tick_rate=100.0, tick_burst=100.0, clock=FakeClock(),
        )
        assert admission.claim_slot("t", 100) is None
        assert admission.depth == 1
        # the submission-rate bucket was untouched by claim_slot
        assert admission.precheck("t") is None
        assert admission.claim_slot("t", 1) == REASON_QUEUE_FULL
        admission.release()
        assert admission.claim_slot("t", 1) == REASON_TICK_BUDGET

    def test_both_phases_reject_while_draining(self):
        admission = AdmissionController(queue_limit=5)
        admission.drain()
        assert admission.precheck("t") == REASON_SHUTTING_DOWN
        assert admission.claim_slot("t", 1) == REASON_SHUTTING_DOWN

    def test_precheck_then_claim_slot_admits(self):
        admission = AdmissionController(
            queue_limit=5, rate=1.0, burst=1.0, clock=FakeClock()
        )
        assert admit(admission, "t", 1) is None
        assert admission.depth == 1
        assert admit(admission, "t", 1) == REASON_RATE_LIMITED


class TestDrainAndMetrics:
    def test_drain_rejects_everything_after(self):
        admission = AdmissionController(queue_limit=10)
        assert admit(admission, "t", 1) is None
        admission.drain()
        assert admit(admission, "t", 1) == REASON_SHUTTING_DOWN

    def test_every_decision_is_counted(self):
        registry = MetricsRegistry()
        admission = AdmissionController(
            queue_limit=1, metrics=registry
        )
        admit(admission, "t", 1)
        admit(admission, "t", 1)   # queue-full
        admission.drain()
        admit(admission, "t", 1)   # shutting-down
        assert registry.value("serve_admitted_total", tenant="t") == 1
        assert registry.value(
            "serve_rejected_total", tenant="t", reason=REASON_QUEUE_FULL
        ) == 1
        assert registry.value(
            "serve_rejected_total", tenant="t", reason=REASON_SHUTTING_DOWN
        ) == 1
        assert registry.value("serve_queue_depth") == 1
        admission.release()
        assert registry.value("serve_queue_depth") == 0
