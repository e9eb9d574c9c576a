"""Supervisor: dispatch, deadline kills, crash containment, self-healing.

Two layers: white-box unit tests drive the containment state machine
directly (no processes, fully deterministic), and a small set of
real-process tests prove the supervisor actually kills, restarts, and
re-answers against live workers.
"""

import os
import threading
import time

import pytest

from repro.core.options import RunOptions
from repro.core.procs import retry_delay
from repro.serve import supervisor
from repro.serve.protocol import Submission
from repro.serve.supervisor import (
    FAIL_CRASH,
    FAIL_TIMEOUT,
    Supervisor,
    _Job,
)
from repro.telemetry.metrics import MetricsRegistry

BENIGN = Submission(source="main:\n    mov eax, 0\n    ret\n").to_wire()

#: ~0.45s of guest wall time on a 2-vCPU host (the spin runs as a loop
#: trace) — long enough to reliably observe/kill mid-run, short enough
#: for the retry attempt to finish fast, and inside the default
#: 5M-tick budget.
_SLOW_SRC = """
main:
    mov ecx, 1500000
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    ret
"""
SLOW = Submission(source=_SLOW_SRC).to_wire()

#: A spin that cannot finish inside any test deadline (the machine is
#: "stuck" from the supervisor's point of view).
_WEDGED_SRC = _SLOW_SRC.replace("1500000", "60000000")
WEDGED = Submission(
    source=_WEDGED_SRC, options=RunOptions(max_ticks=500_000_000)
).to_wire()

#: A benign run whose report (it carries argv) is far larger than a
#: pipe buffer, so its worker is still writing it when nobody reads.
BIG_REPORT = Submission(
    source=BENIGN["source"], argv=["/bin/big", "A" * 300_000]
).to_wire()


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class Collector:
    """Thread-safe event sink with a terminal latch."""

    def __init__(self):
        self.events = []
        self.done = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, event):
        with self._lock:
            self.events.append(event)
        if event.get("kind") in ("report", "error", "rejected"):
            self.done.set()

    @property
    def kinds(self):
        with self._lock:
            return [e.get("kind") for e in self.events]

    @property
    def terminal(self):
        with self._lock:
            return self.events[-1]


# ---------------------------------------------------------------------------
# deterministic backoff


class TestRetryDelay:
    def test_same_key_and_attempt_is_identical(self):
        assert retry_delay(0.05, 2, "job-9") == retry_delay(
            0.05, 2, "job-9"
        )

    def test_exponential_base_with_bounded_jitter(self):
        for attempt in (1, 2, 3, 4):
            delay = retry_delay(0.1, attempt, "job-1")
            base = 0.1 * 2 ** (attempt - 1)
            assert base <= delay < 2 * base

    def test_different_jobs_jitter_apart(self):
        delays = {retry_delay(0.1, 1, f"job-{i}") for i in range(16)}
        assert len(delays) > 1

    def test_planned_delays_are_pinned(self):
        # Values of the fleet's (seed, index) keying and the serve job-id
        # keying before the two functions were merged: chaos replays
        # depend on them staying bit-identical.
        assert retry_delay(0.01, 1, "0:0") == 0.01658346924232319
        assert retry_delay(0.05, 3, "7:12") == 0.342325303144753
        assert retry_delay(0.05, 2, "job-9") == 0.12359382775612177
        assert retry_delay(0.1, 4, "job-1") == 1.4846500394865871

    def test_nonpositive_base_never_sleeps(self):
        assert retry_delay(0, 2, "1:1") == 0.0
        assert retry_delay(-0.1, 1, "job-1") == 0.0


# ---------------------------------------------------------------------------
# containment state machine (white box, no processes)


class TestContainmentUnit:
    def _supervisor(self, **kwargs):
        # Never started: we drive the state machine by hand.
        return Supervisor(workers=1, **kwargs)

    def _job(self, sup, collector, max_retries=1):
        job = _Job(
            id=sup.next_job_id(), spec=BENIGN, on_event=collector,
            timeout=1.0, max_retries=max_retries, attempt=1,
            submitted_at=time.monotonic(),
            dispatched_at=time.monotonic(),
        )
        sup._jobs[job.id] = job
        return job

    def test_crash_with_retries_left_schedules_a_retry(self):
        sup = self._supervisor(metrics=MetricsRegistry())
        collector = Collector()
        worker = sup._workers[0]
        worker.job = self._job(sup, collector, max_retries=1)
        sup._contain_failure(worker, FAIL_CRASH, 9)
        assert collector.kinds == ["retry"]
        assert collector.events[0]["reason"] == FAIL_CRASH
        assert len(sup._retries) == 1
        assert sup._metrics.value(
            "serve_retries_total", reason=FAIL_CRASH
        ) == 1

    def test_retries_exhausted_synthesizes_a_terminal_error(self):
        sup = self._supervisor()
        collector = Collector()
        worker = sup._workers[0]
        job = self._job(sup, collector, max_retries=0)
        worker.job = job
        sup._contain_failure(worker, FAIL_CRASH, -11)
        assert collector.kinds == ["error"]
        terminal = collector.terminal
        assert terminal["code"] == FAIL_CRASH
        assert "exit code -11" in terminal["error"]
        assert "synthesized MONITOR_FAULT record" in terminal["error"]
        assert "timing" in terminal
        assert job.id not in sup._jobs

    def test_timeout_failure_names_the_deadline(self):
        sup = self._supervisor()
        collector = Collector()
        worker = sup._workers[0]
        worker.job = self._job(sup, collector, max_retries=0)
        sup._contain_failure(worker, FAIL_TIMEOUT, None)
        assert "deadline" in collector.terminal["error"]
        assert collector.terminal["code"] == FAIL_TIMEOUT

    def test_terminal_event_is_delivered_exactly_once(self):
        sup = self._supervisor()
        collector = Collector()
        job = self._job(sup, collector, max_retries=0)
        sup._finish(job, {"kind": "error", "code": "x", "error": "first"})
        sup._finish(job, {"kind": "error", "code": "x", "error": "again"})
        assert len(collector.events) == 1

    def test_stale_attempt_messages_are_dropped(self):
        # After a crash-retry, late messages from the killed attempt
        # must not answer (or double-answer) the job.
        sup = self._supervisor()
        collector = Collector()
        worker = sup._workers[0]
        job = self._job(sup, collector)
        job.attempt = 2                    # retry already dispatched
        worker.job = job
        stale = {
            "kind": "result", "worker": 0, "job": job.id,
            "attempt": 1, "report": {"verdict": "benign"}, "ok": None,
        }
        sup._handle_message(stale)
        assert collector.events == []      # dropped
        fresh = dict(stale, attempt=2)
        sup._handle_message(fresh)
        assert collector.kinds == ["report"]

    def test_restart_backoff_doubles_and_caps(self, monkeypatch):
        monkeypatch.setattr(supervisor, "RESTART_BACKOFF", 0.1)
        monkeypatch.setattr(supervisor, "RESTART_BACKOFF_MAX", 0.3)
        sup = self._supervisor()
        worker = sup._workers[0]
        now = 1000.0
        delays = []
        for _ in range(4):
            sup._schedule_restart(worker, now)
            delays.append(worker.restart_at - now)
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])
        assert worker.restarts == 4


# ---------------------------------------------------------------------------
# live pool (real worker processes)


@pytest.fixture(scope="class")
def pool():
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF", 0.01)
        monkeypatch.setattr(supervisor, "RESTART_BACKOFF", 0.05)
        sup = Supervisor(
            workers=1, job_timeout=30.0, max_retries=1,
            metrics=MetricsRegistry(),
        )
        sup.start()
        assert wait_for(lambda: sup.idle_workers() == 1)
        yield sup
        sup.stop()


class TestLivePool:
    def test_benign_submission_answers_with_a_report(self, pool):
        collector = Collector()
        job_id = pool.try_submit(BENIGN, collector)
        assert job_id is not None
        assert collector.done.wait(30.0)
        terminal = collector.terminal
        assert terminal["kind"] == "report"
        assert terminal["job"] == job_id
        assert terminal["report"]["verdict"] == "benign"
        timing = terminal["timing"]
        assert timing["attempts"] == 1
        assert timing["total"] >= timing["exec"] >= 0

    def test_no_idle_worker_means_no_dispatch(self, pool):
        slow = Collector()
        assert wait_for(lambda: pool.idle_workers() == 1)
        assert pool.try_submit(SLOW, slow) is not None
        assert wait_for(lambda: pool.idle_workers() == 0, timeout=10.0)
        assert pool.try_submit(BENIGN, Collector()) is None
        assert slow.done.wait(30.0)

    def test_busy_worker_killed_retries_then_succeeds(self, pool):
        collector = Collector()
        assert wait_for(lambda: pool.idle_workers() == 1)
        assert pool.try_submit(SLOW, collector) is not None
        assert wait_for(lambda: pool.busy_worker_ids() == [0], timeout=10.0)
        time.sleep(0.1)                    # let the guest get going
        assert pool.kill_worker(0)
        assert collector.done.wait(30.0)
        kinds = collector.kinds
        assert "retry" in kinds
        assert collector.events[kinds.index("retry")]["reason"] == FAIL_CRASH
        assert collector.terminal["kind"] == "report"
        assert collector.terminal["report"]["verdict"] == "benign"
        assert collector.terminal["timing"]["attempts"] == 2
        # the pool healed: same worker slot, restarted and idle again
        assert wait_for(lambda: pool.idle_workers() == 1)
        assert pool.stats()["workers"][0]["restarts"] >= 1

    def test_blown_deadline_kills_and_synthesizes(self, pool):
        collector = Collector()
        assert wait_for(lambda: pool.idle_workers() == 1)
        job_id = pool.try_submit(
            WEDGED, collector, timeout=0.4, max_retries=0
        )
        assert job_id is not None
        assert collector.done.wait(30.0)
        terminal = collector.terminal
        assert terminal["kind"] == "error"
        assert terminal["code"] == FAIL_TIMEOUT
        assert "deadline" in terminal["error"]
        # the worker that held it comes back
        assert wait_for(lambda: pool.idle_workers() == 1)

    def test_pool_still_serves_after_all_that_chaos(self, pool):
        collector = Collector()
        assert wait_for(lambda: pool.idle_workers() == 1)
        assert pool.try_submit(BENIGN, collector) is not None
        assert collector.done.wait(30.0)
        assert collector.terminal["kind"] == "report"
        assert pool.in_flight() == 0


class TestStop:
    def test_stop_answers_in_flight_with_shutting_down(self):
        sup = Supervisor(workers=1, job_timeout=30.0)
        sup.start()
        assert wait_for(lambda: sup.idle_workers() == 1)
        collector = Collector()
        assert sup.try_submit(WEDGED, collector) is not None
        assert wait_for(lambda: sup.busy_worker_ids() == [0], timeout=10.0)
        sup.stop()
        assert collector.done.wait(5.0)
        assert collector.terminal["kind"] == "error"
        assert collector.terminal["code"] == "shutting-down"
        assert all(
            w["state"] == "stopped"
            for w in sup.stats()["workers"].values()
        )

    def test_submit_after_stop_is_refused(self):
        sup = Supervisor(workers=1)
        sup.start()
        assert wait_for(lambda: sup.idle_workers() == 1)
        sup.stop()
        assert sup.try_submit(BENIGN, Collector()) is None


# ---------------------------------------------------------------------------
# workers that die while talking (real worker processes)


def _terminals(collector):
    return [k for k in collector.kinds if k in ("report", "error")]


class TestDeathMidMessage:
    def test_kill_mid_write_neither_wedges_nor_delays_another_worker(self):
        sup = Supervisor(workers=2, job_timeout=30.0, max_retries=1)
        sup.start()
        try:
            assert wait_for(lambda: sup.idle_workers() == 2)
            big, small = Collector(), Collector()
            # Holding the lock keeps the supervisor from taking in
            # messages, so worker 0's report backs up mid-write.
            with sup._lock:
                assert sup.try_submit(BIG_REPORT, big) is not None
                time.sleep(1.5)  # the run ends, the write blocks
                assert sup.kill_worker(0)
                assert sup.try_submit(BENIGN, small) is not None
            assert small.done.wait(10.0), "another worker's answer stalled"
            assert small.kinds == ["report"]
            assert big.done.wait(30.0), "the killed job was never answered"
            time.sleep(0.2)  # a second terminal would land by now
            assert _terminals(big) == ["report"]
            assert big.terminal["timing"]["attempts"] == 2
            assert len(big.terminal["report"]["argv"][1]) == 300_000
            assert wait_for(lambda: sup.idle_workers() == 2)
        finally:
            sup.stop()


CRASH_EXIT_CODE = 23


def _answer_then_die(worker_id, inbox, results):
    """A serve worker that dies right after answering a ``die`` job."""
    results.send({"kind": "ready", "worker": worker_id})
    while True:
        job = inbox.get()
        if job is None:
            return
        reply = {"worker": worker_id, "job": job["id"],
                 "attempt": job["attempt"]}
        if job["spec"].get("die"):
            time.sleep(0.3)
        else:
            results.send(dict(reply, kind="start"))
        results.send(dict(
            reply, kind="result", report={"verdict": "benign"}, ok=None,
        ))
        if job["spec"].get("die"):
            os._exit(CRASH_EXIT_CODE)
        results.send({"kind": "ready", "worker": worker_id})


class TestResultBeforeDeath:
    def test_result_sent_just_before_a_death_is_kept(self, monkeypatch):
        monkeypatch.setattr(supervisor, "serve_worker_main", _answer_then_die)
        sup = Supervisor(workers=2, job_timeout=30.0, max_retries=1)
        sup.start()
        try:
            assert wait_for(lambda: sup.idle_workers() == 2)
            dying, other = Collector(), Collector()
            # Worker 1's "start" holds the supervisor thread at the lock
            # while worker 0 answers and dies, so the supervisor sees
            # that death before it reads the answer.
            with sup._lock:
                assert sup.try_submit({"die": True}, dying) is not None
                assert sup.try_submit({}, other) is not None
                time.sleep(1.0)
            assert dying.done.wait(10.0) and other.done.wait(10.0)
            assert wait_for(lambda: sup.stats()["workers"][0]["restarts"])
            assert dying.kinds == ["report"]
            assert dying.terminal["timing"]["attempts"] == 1
            assert other.kinds == ["report"]
        finally:
            sup.stop()
