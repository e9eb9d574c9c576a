"""The fleet's scheduling rule, unit by unit, with fake workers.

:class:`repro.fleet.engine._Dispatch` holds the rule and does no I/O, so
it is driven here by scripted fake workers: each step lets one worker
take the next item from its inbox and report it.  That makes the rule
checkable step by step — placement does not depend on which worker
finishes first, a worker never holds more than :data:`WORKER_DEPTH`
tasks, the tasks a dead worker never started go to a survivor, and a
drain cancels what was never started.  :func:`_collect` reads real
worker processes, and :func:`worker_main` runs in-process against a
real pipe.
"""

import multiprocessing
import os
import queue as queue_mod
import random
import struct
import threading

import pytest

from repro.core.procs import WorkerProcess, mp_context
from repro.fleet import WorkloadRef, make_tasks
from repro.fleet.engine import NO_WORKER, WORKER_DEPTH, _collect, _Dispatch
from repro.fleet.report import FleetRunRecord
from repro.fleet.worker import worker_main


def _tasks(count):
    refs = [
        WorkloadRef("tests.fleet.crashers", "crasher_workloads", "ok-1")
        for _ in range(count)
    ]
    return make_tasks(refs)


class _FakeWorkers:
    """Worker processes played out one step at a time.

    ``pick`` chooses which ready worker moves next; ``die_after`` maps a
    worker to how many tasks it reports before it dies on the next one;
    ``stop_after`` sets the stop event once that many records are out.
    Like :func:`worker_main`, a worker that takes an item while the stop
    event is set starts nothing and says it is done.
    """

    def __init__(self, count, pick=min, die_after=None, stop_after=None):
        self.count = count
        self.pick = pick
        self.inboxes = {wid: [] for wid in range(count)}
        self.sent = {wid: [] for wid in range(count)}
        self.die_after = dict(die_after or {})
        self.stop_after = stop_after
        self.stopped = False
        self.reported = {wid: 0 for wid in range(count)}
        self.peak = 0

    def run(self, tasks):
        dispatch = _Dispatch(tasks, self.count)
        while True:
            for wid, item in dispatch.hand_out(self.stopped):
                self.inboxes[wid].append(item)
                self.sent[wid].append(item)
            self.peak = max(self.peak, max(
                len([t for t in inbox if t is not None])
                for inbox in self.inboxes.values()
            ))
            if not dispatch.live:
                break
            ready = [w for w in sorted(dispatch.live) if self.inboxes[w]]
            assert ready, "a live worker must always have work or None"
            wid = self.pick(ready)
            if self.die_after.get(wid) == self.reported[wid]:
                dispatch.bury(wid, -9)
                continue
            item = self.inboxes[wid].pop(0)
            if item is None or self.stopped:
                dispatch.receive(wid, {"kind": "worker-done", "cache": None})
                continue
            self.reported[wid] += 1
            if sum(self.reported.values()) == self.stop_after:
                self.stopped = True
            dispatch.receive(wid, FleetRunRecord(
                index=item.index, name=item.ref.name, worker=wid,
                report={"verdict": "benign"},
            ).to_dict())
        records, cache_parts = dispatch.finish(self.stopped)
        assert cache_parts == []
        return records


class TestDispatch:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_placement_does_not_depend_on_who_finishes_first(self, workers):
        rng = random.Random(5)
        for pick in (min, max, rng.choice):
            records = _FakeWorkers(workers, pick=pick).run(_tasks(10))
            assert [r.index for r in records] == list(range(10))
            assert [r.worker for r in records] == [
                k % workers for k in range(10)
            ]

    def test_no_worker_ever_holds_more_than_depth(self):
        workers = _FakeWorkers(3)
        records = workers.run(_tasks(10))
        assert not any(r.failed for r in records)
        # The next task is always waiting, and never more than that.
        assert workers.peak == WORKER_DEPTH

    def test_each_worker_is_closed_once_after_its_last_task(self):
        workers = _FakeWorkers(3, pick=max)
        workers.run(_tasks(7))
        for sent in workers.sent.values():
            assert sent.count(None) == 1
            assert sent[-1] is None
        ran = sorted(
            t.index for sent in workers.sent.values()
            for t in sent if t is not None
        )
        assert ran == list(range(7))

    def test_tasks_a_dead_worker_never_started_go_to_a_survivor(self):
        records = _FakeWorkers(2, die_after={0: 0}).run(_tasks(6))
        assert [r.index for r in records] == list(range(6))
        died_on = records[0]
        assert died_on.failed and died_on.worker == 0
        assert "exit code -9" in died_on.error
        # Task 2 was queued behind the death, task 4 not yet handed out.
        assert [r.failed for r in records[1:]] == [False] * 5
        assert {r.worker for r in records[1:]} == {1}

    def test_orphans_are_dealt_to_the_survivors_in_turn(self):
        records = _FakeWorkers(3, die_after={0: 1}).run(_tasks(12))
        assert [r.worker for r in records] == [
            0, 1, 2, 0, 1, 2, 1, 1, 2, 2, 1, 2,
        ]
        assert [r.index for r in records if r.failed] == [3]

    def test_every_worker_dying_errors_the_tasks_left(self):
        records = _FakeWorkers(2, die_after={0: 0, 1: 0}).run(_tasks(5))
        assert [r.index for r in records] == list(range(5))
        assert [r.worker for r in records[:2]] == [0, 1]
        assert all("exit code -9" in r.error for r in records[:2])
        for record in records[2:]:
            assert "every worker died" in record.error
            assert record.worker == NO_WORKER

    def test_drain_cancels_what_was_not_started(self):
        records = _FakeWorkers(2, stop_after=1).run(_tasks(8))
        assert [r.index for r in records] == list(range(8))
        assert not records[0].failed
        assert all(r.cancelled for r in records[1:])
        # Handed out but never started: cancelled where it was queued.
        assert [r.worker for r in records[1:4]] == [1, 0, 1]
        # Never handed out at all.
        assert {r.worker for r in records[4:]} == {NO_WORKER}


@pytest.fixture
def pipe():
    reader, writer = multiprocessing.Pipe(duplex=False)
    yield reader, writer
    reader.close()
    writer.close()


def _send_then_die(wid, inbox, results, record):
    results.send(record)
    os._exit(9)


def _die_mid_record(wid, inbox, results):
    # A length header promising 1000 bytes, then the process is gone.
    os.write(results.fileno(), struct.pack("!i", 1000) + b"cut")
    os._exit(9)


def _exited(target, *args):
    worker = WorkerProcess(mp_context(), target, 0, *args)
    worker.proc.join(30.0)
    return worker


class TestCollect:
    """:func:`_collect` over real :class:`WorkerProcess` workers (the
    pipe itself is covered in ``tests/core/test_procs.py``)."""

    def test_reads_what_a_dead_worker_sent_before_blaming_it(self):
        tasks = _tasks(3)
        dispatch = _Dispatch(tasks, 1)
        dispatch.hand_out(False)  # worker 0 holds tasks 0 and 1
        # Task 0's record was sent; the worker then died on task 1.
        worker = _exited(_send_then_die, FleetRunRecord(
            index=0, name="ok-1", worker=0, report={"verdict": "benign"},
        ).to_dict())
        _collect(dispatch, {0: worker})
        worker.close()
        assert not dispatch.live
        records, _ = dispatch.finish(False)
        assert records[0].report == {"verdict": "benign"}
        assert "exit code 9" in records[1].error
        assert "every worker died" in records[2].error

    def test_a_record_cut_off_by_the_death_counts_as_unsent(self):
        dispatch = _Dispatch(_tasks(1), 1)
        dispatch.hand_out(False)
        worker = _exited(_die_mid_record)
        _collect(dispatch, {0: worker})
        worker.close()
        records, _ = dispatch.finish(False)
        assert "exit code 9" in records[0].error


class TestWorkerMain:
    def test_runs_its_inbox_until_none(self, pipe):
        reader, writer = pipe
        inbox = queue_mod.Queue()
        for item in (*_tasks(2), None):
            inbox.put(item)
        worker_main(3, inbox, writer)
        first, second, done = (reader.recv() for _ in range(3))
        assert not reader.poll()
        assert [first["index"], second["index"]] == [0, 1]
        assert {first["worker"], second["worker"]} == {3}
        assert first["report"]["verdict"] == "benign"
        assert done["kind"] == "worker-done"
        assert done["worker"] == 3
        assert done["runs"] == 2

    def test_starts_nothing_once_stop_is_set(self, pipe):
        reader, writer = pipe
        inbox = queue_mod.Queue()
        inbox.put(_tasks(1)[0])
        stop = threading.Event()
        stop.set()
        worker_main(0, inbox, writer, stop_event=stop)
        done = reader.recv()
        assert not reader.poll()
        assert done["kind"] == "worker-done"
        assert done["runs"] == 0
