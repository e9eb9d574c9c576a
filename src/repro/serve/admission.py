"""Admission control: bounded queueing, tenant rate limits, tick budgets.

The daemon's first robustness promise is *bounded memory under
overload*: every submission either enters a queue whose depth is capped,
or is rejected immediately with an explicit reason — the client always
learns which, and the daemon never buffers unbounded work.  The second
is *fairness*: one hot tenant must not starve the rest, so admission
meters each tenant twice —

* a **submission token bucket** (``rate``/``burst`` submissions per
  second) bounds request frequency;
* a **tick token bucket** (``tick_rate``/``tick_burst`` guest ticks per
  second) bounds requested *compute*: a submission's cost is its
  ``max_ticks`` budget, so a tenant shipping huge runs drains its
  allowance proportionally faster than one shipping small ones.

Rejection reasons are stable protocol strings (:data:`REASON_QUEUE_FULL`
et al.) and every decision is counted in the metrics registry.  The
clock is injectable, so admission behavior is deterministic under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

REASON_QUEUE_FULL = "queue-full"
REASON_RATE_LIMITED = "rate-limited"
REASON_TICK_BUDGET = "tick-budget"
REASON_SHUTTING_DOWN = "shutting-down"
REASON_INVALID = "invalid-submission"


class TokenBucket:
    """A classic token bucket with lazy refill and injectable clock."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._stamp = now

    def try_take(self, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens if available; never blocks.

        Raises ValueError on a negative or non-finite cost: taking a
        negative amount would add tokens past any limit.
        """
        if not 0 <= cost < math.inf:
            raise ValueError(f"token cost must be finite and >= 0, got {cost}")
        self._refill()
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


@dataclass
class _TenantState:
    submissions: TokenBucket
    ticks: Optional[TokenBucket]


class AdmissionController:
    """Decide, per submission, between a queue slot and a typed rejection.

    ``queue_limit`` bounds submissions *in the system* (queued or
    executing): :meth:`try_admit` claims a slot, :meth:`release` returns
    it when the submission is answered — by a report, a contained error,
    or a rejection further down the line.  Tenant limiters are created
    on first sight of a tenant name; ``rate=None`` / ``tick_rate=None``
    disable that meter entirely (the bench harness runs wide open).

    Admission is two-phase so the daemon can order it around the verdict
    cache: :meth:`precheck` (draining + submission rate) runs before any
    per-submission compute and meters *all* traffic, cache hits
    included; :meth:`claim_slot` (queue depth + tick budget) runs only
    for submissions that will really execute.  :meth:`try_admit` is the
    one-shot composition.
    """

    def __init__(
        self,
        queue_limit: int = 64,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        tick_rate: Optional[float] = None,
        tick_burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.queue_limit = queue_limit
        self.rate = rate
        self.burst = burst if burst is not None else (rate or 0) * 2
        self.tick_rate = tick_rate
        self.tick_burst = (
            tick_burst if tick_burst is not None else (tick_rate or 0) * 2
        )
        self._clock = clock
        self._tenants: Dict[str, _TenantState] = {}
        self.depth = 0
        self.draining = False
        self._metrics = metrics

    # -- metrics -----------------------------------------------------------
    def _count(self, admitted: bool, tenant: str, reason: str = "") -> None:
        if self._metrics is None:
            return
        if admitted:
            self._metrics.counter(
                "serve_admitted_total", tenant=tenant
            ).inc()
        else:
            self._metrics.counter(
                "serve_rejected_total", tenant=tenant, reason=reason
            ).inc()
        self._metrics.gauge("serve_queue_depth").set(self.depth)

    # -- tenant state ------------------------------------------------------
    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(
                submissions=TokenBucket(
                    self.rate or 1.0, self.burst or 1.0, self._clock
                ),
                ticks=(
                    TokenBucket(
                        self.tick_rate, self.tick_burst, self._clock
                    )
                    if self.tick_rate is not None else None
                ),
            )
            self._tenants[name] = state
        return state

    # -- decisions ---------------------------------------------------------
    def precheck(self, tenant: str) -> Optional[str]:
        """Phase-1 admission: draining state + the per-tenant submission
        rate bucket.  Return ``None`` to proceed or a rejection reason.

        This is deliberately cheap (no queue slot, no tick spend) so the
        daemon can run it *before* any per-submission work — assembling
        untrusted sources, digesting cache keys.  It charges a
        rate token for every submission, cache hits included: a client
        replaying a cached submission is still metered, so replay storms
        stay bounded even though hits never claim a queue slot.
        """
        if self.draining:
            self._count(False, tenant, REASON_SHUTTING_DOWN)
            return REASON_SHUTTING_DOWN
        if self.rate is not None and not self._tenant(
            tenant
        ).submissions.try_take():
            self._count(False, tenant, REASON_RATE_LIMITED)
            return REASON_RATE_LIMITED
        return None

    def claim_slot(self, tenant: str, max_ticks: int) -> Optional[str]:
        """Phase-2 admission: claim a queue slot and charge the tick
        budget.  Only submissions that will really execute (cache
        misses) reach this; :meth:`release` returns the slot."""
        if self.draining:
            self._count(False, tenant, REASON_SHUTTING_DOWN)
            return REASON_SHUTTING_DOWN
        if self.depth >= self.queue_limit:
            self._count(False, tenant, REASON_QUEUE_FULL)
            return REASON_QUEUE_FULL
        state = self._tenant(tenant)
        if state.ticks is not None and not state.ticks.try_take(
            float(max_ticks)
        ):
            self._count(False, tenant, REASON_TICK_BUDGET)
            return REASON_TICK_BUDGET
        self.depth += 1
        self._count(True, tenant)
        return None

    def release(self) -> None:
        """Return one claimed slot (the submission was answered)."""
        if self.depth > 0:
            self.depth -= 1
        if self._metrics is not None:
            self._metrics.gauge("serve_queue_depth").set(self.depth)

    def drain(self) -> None:
        """Stop admitting: every new submission gets ``shutting-down``."""
        self.draining = True
