"""Fleet engine: dispatch, retries, and serial/fleet determinism.

The load-bearing property: a fleet's merged per-run report dicts are
bit-identical to running the same tasks serially — independent of worker
count and of which worker ran which task.  Plus the retry policy
(watchdog and monitor-fault outcomes retry with backoff, deterministic
outcomes never do) both as a unit (injected runner) and end to end (a
real watchdog kill via ``wall_timeout=0``).
"""

import json
from dataclasses import replace

import pytest

from repro.api import Session
from repro.core.options import RunOptions
from repro.core.procs import retry_delay
from repro.fleet import (
    FleetTask,
    WorkloadRef,
    make_tasks,
    retry_reason,
    run_fleet,
    run_task_with_retry,
    workload_refs,
)
from repro.fleet.report import FleetRunRecord

#: A real Table 8 row whose expected verdict is HIGH — handy because a
#: degraded (watchdog/benign) report visibly misclassifies.
ELM = WorkloadRef.from_registry("8", "ElmExploit")


def _reports_json(fleet):
    return json.dumps(fleet.reports, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# retry policy (unit: injected runner, no multiprocessing)


def _watchdogged(report):
    return replace(report, result=replace(report.result, reason="watchdog"))


class TestRetry:
    @pytest.fixture(scope="class")
    def good_report(self):
        return ELM.resolve().run()

    def _task(self, **options):
        return FleetTask(index=0, ref=ELM, options=RunOptions(**options))

    def test_retry_reason_classification(self, good_report):
        assert retry_reason(good_report) is None
        assert retry_reason(_watchdogged(good_report)) == "watchdog"
        assert retry_reason(
            replace(good_report, monitor_faults=["boom"])
        ) == "monitor-fault"

    def test_deterministic_outcome_never_retries(self, good_report):
        sleeps = []
        record = run_task_with_retry(
            Session(), self._task(), max_retries=3,
            sleep=sleeps.append, runner=lambda w, o, t: good_report,
        )
        assert record["attempts"] == 1
        assert record["retries"] == []
        assert sleeps == []
        assert record["ok"] is True

    def test_watchdog_retried_then_succeeds(self, good_report):
        outcomes = [_watchdogged(good_report), good_report]
        sleeps = []
        record = run_task_with_retry(
            Session(), self._task(), max_retries=1, backoff=0.01,
            sleep=sleeps.append,
            runner=lambda w, o, t: outcomes.pop(0),
        )
        assert record["attempts"] == 2
        assert record["retries"] == ["watchdog"]
        # deterministic jittered backoff, attempt 1
        assert sleeps == [retry_delay(0.01, 1, "0:0")]
        assert record["report"]["result"]["reason"] != "watchdog"
        assert record["ok"] is True

    def test_monitor_fault_retried(self, good_report):
        outcomes = [
            replace(good_report, monitor_faults=["boom"]), good_report
        ]
        record = run_task_with_retry(
            Session(), self._task(), max_retries=1, backoff=0,
            runner=lambda w, o, t: outcomes.pop(0),
        )
        assert record["retries"] == ["monitor-fault"]
        assert record["report"]["monitor_faults"] == []

    def test_retries_exhausted_surfaces_final_report(self, good_report):
        wedged = _watchdogged(good_report)
        sleeps = []
        record = run_task_with_retry(
            Session(), self._task(), max_retries=2, backoff=0.01,
            sleep=sleeps.append, runner=lambda w, o, t: wedged,
        )
        assert record["attempts"] == 3
        assert record["retries"] == ["watchdog", "watchdog"]
        # deterministic jittered backoff, exponential base
        assert sleeps == [
            retry_delay(0.01, 1, "0:0"),
            retry_delay(0.01, 2, "0:0"),
        ]
        assert record["report"]["result"]["reason"] == "watchdog"

    def test_exception_retried_then_succeeds(self, good_report):
        outcomes = [None, good_report]

        def runner(w, o, t):
            out = outcomes.pop(0)
            if out is None:
                raise RuntimeError("transient")
            return out

        record = run_task_with_retry(
            Session(), self._task(), max_retries=1, backoff=0,
            runner=runner,
        )
        assert record["retries"] == ["error"]
        assert record["error"] is None
        assert record["ok"] is True

    def test_exception_exhausted_keeps_traceback(self):
        def runner(w, o, t):
            raise RuntimeError("still broken")

        record = run_task_with_retry(
            Session(), self._task(), max_retries=1, backoff=0,
            runner=runner,
        )
        assert record["report"] is None
        assert record["ok"] is None
        assert "still broken" in record["error"]

    def test_unresolvable_ref_is_an_error_record(self):
        task = FleetTask(
            index=0,
            ref=WorkloadRef(
                module="repro.programs.exploits",
                factory="table8_workloads",
                name="no-such-row",
            ),
        )
        record = run_task_with_retry(Session(), task)
        assert record["report"] is None
        assert "no-such-row" in record["error"]


# ---------------------------------------------------------------------------
# determinism: fleet == serial, bit for bit


class TestFleetDeterminism:
    def test_four_worker_fleet_matches_serial_over_all_workloads(self):
        refs = workload_refs()
        assert len(refs) == 62
        serial = run_fleet(refs, workers=1)
        fleet = run_fleet(refs, workers=4)
        assert not serial.failures
        assert not fleet.failures
        assert [r.name for r in fleet.runs] == [r.name for r in serial.runs]
        assert _reports_json(fleet) == _reports_json(serial)

    @pytest.mark.parametrize("workers", (2, 3, 4))
    def test_worker_count_does_not_change_output(self, workers):
        refs = workload_refs(["8"])
        serial = run_fleet(refs, workers=1)
        fleet = run_fleet(refs, workers=workers)
        assert fleet.workers == workers
        assert _reports_json(fleet) == _reports_json(serial)

    def test_per_run_reports_carry_schema_version(self):
        fleet = run_fleet([ELM], workers=1)
        assert fleet.runs[0].report["schema_version"] == 3
        # fleet wire format v3: no shard-strategy key
        assert fleet.to_dict()["schema_version"] == 3
        assert fleet.to_dict()["partial"] is False
        assert "shard_by" not in fleet.to_dict()

    def test_workers_clamped_to_task_count(self):
        fleet = run_fleet([ELM], workers=8)
        assert fleet.workers == 1
        assert len(fleet.runs) == 1


# ---------------------------------------------------------------------------
# retries end to end: a real watchdog kill through worker processes


class TestFleetRetriesEndToEnd:
    def test_wall_timeout_zero_exhausts_retries(self):
        # wall_timeout=0 arms an already-expired watchdog: every attempt
        # (in real worker processes) is killed immediately.
        tasks = make_tasks(
            workload_refs(["8"])[:2], RunOptions(wall_timeout=0.0)
        )
        fleet = run_fleet(tasks, workers=2, max_retries=1)
        assert len(fleet.runs) == 2
        for record in fleet.runs:
            assert record.attempts == 2
            assert record.retries == ["watchdog"]
            assert record.report["result"]["reason"] == "watchdog"
            assert record.ok is False
        assert len(fleet.retried) == 2
        assert len(fleet.failures) == 2

    def test_retry_after_watchdog_recovers_in_worker(self, monkeypatch):
        # First attempt wedges (wall_timeout=0), then the retry runs with
        # the budget restored — patched at the worker level so the real
        # run_task_with_retry drives a real Session.
        import repro.fleet.worker as worker_mod

        task = FleetTask(
            index=0, ref=ELM, options=RunOptions(wall_timeout=0.0)
        )
        real_run_workload = Session.run_workload
        calls = []

        def flaky(self, workload, options=None, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                options = options.replaced(wall_timeout=None)
            return real_run_workload(
                self, workload, options=options, **kwargs
            )

        monkeypatch.setattr(Session, "run_workload", flaky)
        record = worker_mod.run_task_with_retry(
            Session(), task, max_retries=1, backoff=0
        )
        assert record["attempts"] == 2
        assert record["retries"] == ["watchdog"]
        assert record["report"]["result"]["reason"] != "watchdog"
        assert record["ok"] is True


# ---------------------------------------------------------------------------
# failure containment


class TestWorkerDeath:
    def test_dead_worker_yields_error_records(self):
        # A worker that dies before its sentinel: the task it died on
        # gets its exit code; the one queued behind it has no worker
        # left to go to, so it gets an error too.
        from repro.fleet.engine import _Dispatch

        tasks = make_tasks([ELM, ELM])
        dispatch = _Dispatch(tasks, 1)
        # Handed both: the running one and the next.
        assert dispatch.hand_out(False) == [(0, tasks[0]), (0, tasks[1])]
        dispatch.bury(0, -9)
        assert not dispatch.live
        records, cache_parts = dispatch.finish(False)
        assert cache_parts == []
        assert [r.index for r in records] == [0, 1]
        assert all(record.failed for record in records)
        assert "exit code -9" in records[0].error
        assert records[0].worker == 0
        assert "every worker died" in records[1].error
        assert records[1].worker == -1

    def test_wire_roundtrip(self):
        record = FleetRunRecord(
            index=3, name="x", worker=1, attempts=2,
            retries=["watchdog"], ok=True, report={"verdict": "high"},
            elapsed=0.5,
        )
        wire = record.to_dict()
        back = FleetRunRecord.from_wire(wire)
        assert back == replace(record, spans=None)
