"""Dead-worker containment and graceful fleet shutdown, end to end.

Containment: a worker that ``os._exit``s mid-task (a real process
death — no Python unwinding, no sentinel) must cost only the task it
died on: the coordinator synthesizes an error record for it, deals the
tasks it never started to a surviving worker, keeps every other record
(the one it sent just before dying too), preserves task-index order,
and returns without hanging.

Graceful shutdown: a drain request (signal or programmatic stop event)
mid-sweep must still produce a complete, ordered, schema-versioned
FleetReport — in-flight tasks finish, tasks not started surface as
``cancelled`` records, and ``partial=True``.
"""

import os
import signal
import threading

import pytest

from repro.fleet import WorkloadRef, run_fleet
from tests.fleet.crashers import CRASH_EXIT_CODE, SLEEP_SECONDS


def _crashers(*names):
    return [
        WorkloadRef("tests.fleet.crashers", "crasher_workloads", name)
        for name in names
    ]


OK_ROWS = ("ok-1", "ok-2", "ok-3", "ok-4")


def _sleepy_refs(count=6):
    return [
        WorkloadRef("tests.fleet.crashers", "sleepy_workloads", f"sleepy-{i}")
        for i in range(count)
    ]


class TestDeadWorkerContainment:
    @pytest.fixture(scope="class")
    def fleet(self):
        # Two workers; worker 0's tasks are worker-killer, ok-2 and
        # ok-4, and it holds ok-2, queued behind the crash.
        return run_fleet(_crashers("worker-killer", *OK_ROWS), workers=2)

    def test_no_hang_and_no_lost_tasks(self, fleet):
        assert [r.index for r in fleet.runs] == [0, 1, 2, 3, 4]
        assert [r.name for r in fleet.runs] == ["worker-killer", *OK_ROWS]

    def test_crash_synthesizes_an_error_record(self, fleet):
        killer = fleet.runs[0]
        assert killer.failed
        assert f"exit code {CRASH_EXIT_CODE}" in killer.error
        assert killer.report is None

    def test_only_the_killer_fails(self, fleet):
        assert [r.name for r in fleet.failures] == ["worker-killer"]
        for record in fleet.runs[1:]:
            assert not record.failed, record.error
            assert record.report["verdict"] == "benign"

    def test_task_queued_behind_the_crash_runs_on_a_survivor(self, fleet):
        killer, ok_2 = fleet.runs[0], fleet.runs[2]
        assert ok_2.name == "ok-2"
        assert ok_2.worker != killer.worker
        assert ok_2.attempts == 1

    def test_tasks_the_dead_worker_never_started_run_on_a_survivor(
        self, fleet
    ):
        killer, ok_4 = fleet.runs[0], fleet.runs[4]
        assert ok_4.name == "ok-4"
        assert ok_4.worker != killer.worker

    def test_fleet_is_not_partial(self, fleet):
        assert not fleet.partial
        assert fleet.cancelled == []

    def test_record_sent_just_before_a_death_is_kept(self):
        # Worker 0 runs ok-1, sends its record, and dies the moment it
        # starts worker-killer: ok-1 keeps its report and only the
        # killer is blamed.
        fleet = run_fleet(
            _crashers("ok-1", "ok-2", "worker-killer", "ok-3", "ok-4"),
            workers=2,
        )
        assert [r.name for r in fleet.failures] == ["worker-killer"]
        ok_1, killer, ok_4 = fleet.runs[0], fleet.runs[2], fleet.runs[4]
        assert ok_1.worker == killer.worker == 0
        assert ok_1.report["verdict"] == "benign"
        assert f"exit code {CRASH_EXIT_CODE}" in killer.error
        assert ok_4.worker == 1 and not ok_4.failed

    def test_every_worker_dying_errors_the_tasks_left(self):
        fleet = run_fleet(
            _crashers("worker-killer", "worker-killer-2", "ok-1", "ok-2"),
            workers=2,
        )
        assert [r.index for r in fleet.runs] == [0, 1, 2, 3]
        killers, left = fleet.runs[:2], fleet.runs[2:]
        assert {r.worker for r in killers} == {0, 1}
        for record in killers:
            assert f"exit code {CRASH_EXIT_CODE}" in record.error
        for record in left:
            assert record.failed
            assert not record.cancelled
            assert "every worker died" in record.error
        assert not fleet.partial


class TestGracefulShutdown:
    def test_preset_stop_event_cancels_everything(self):
        import multiprocessing

        stop = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        ).Event()
        stop.set()
        fleet = run_fleet(_sleepy_refs(4), workers=2, stop_event=stop)
        assert fleet.partial
        assert [r.index for r in fleet.runs] == [0, 1, 2, 3]
        assert all(r.cancelled for r in fleet.runs)
        data = fleet.to_dict()
        assert data["schema_version"] == 3
        assert data["partial"] is True
        assert data["summary"]["cancelled"] == 4

    def test_sigint_mid_sweep_drains_and_reports(self):
        # A real SIGINT to our own pid while the fleet is mid-sweep:
        # the in-flight tasks finish, the rest come back cancelled, and
        # run_fleet returns a partial report instead of raising
        # KeyboardInterrupt mid-merge.
        refs = _sleepy_refs(6)
        timer = threading.Timer(
            SLEEP_SECONDS * 1.5, os.kill, (os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            fleet = run_fleet(refs, workers=2)
        finally:
            timer.cancel()
        assert fleet.partial
        assert [r.index for r in fleet.runs] == list(range(6))
        finished = [r for r in fleet.runs if not r.failed]
        cancelled = [r for r in fleet.runs if r.cancelled]
        assert len(finished) + len(cancelled) == 6
        assert finished, "in-flight tasks should have been drained"
        assert cancelled, "later tasks should have been cancelled"
        # drain restored the previous SIGINT handler
        assert signal.getsignal(signal.SIGINT) is not None

    def test_serial_path_honors_stop_event(self):
        stop = threading.Event()
        refs = _sleepy_refs(3)

        # Flip the stop event from a watcher thread once the sweep is
        # underway; serial mode checks it between tasks.
        flipper = threading.Timer(SLEEP_SECONDS / 2, stop.set)
        flipper.start()
        try:
            fleet = run_fleet(refs, workers=1, stop_event=stop)
        finally:
            flipper.cancel()
        assert fleet.partial
        assert len(fleet.runs) == 3
        assert fleet.runs[0].report is not None      # finished in-flight
        assert fleet.runs[-1].cancelled              # drained
