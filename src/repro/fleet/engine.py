"""The fleet coordinator: spawn, feed, stream, merge.

:func:`run_fleet` takes an ordered task list and starts N worker
processes.  Task *k* (in index order) belongs to worker ``k % N``.  Each
worker has its own inbox and holds at most :data:`WORKER_DEPTH` tasks —
the one it runs and the next — and gets its next task as it reports one
finished.  Per-run records stream back, each worker on its own pipe,
and are merged — ordered by task index — into a :class:`FleetReport`
whose per-run report dicts are bit-identical to running the same tasks
serially with the same options.

Determinism contract
--------------------
* Every run happens on a *fresh* machine; workers share nothing but a
  per-process warm engine cache whose reuse is semantics-free (the
  differential suites hold that line).
* Records carry their task index; the coordinator sorts by it, so the
  merged report does not depend on worker count, on which worker ran
  which task, or on scheduling.  Placement is fixed too, so per-worker
  work counts (blocks translated in each warm cache) repeat run to run.
  ``workers=1`` runs the identical code path in-process and is the
  serial baseline the determinism tests compare against.
* Wall-clock facts (``elapsed``, ``wall_seconds``) and scheduling facts
  (``worker``, ``attempts``) live outside the per-run report dicts.

Failure containment: a worker that dies without delivering its sentinel
(segfault, OOM kill) costs only the task it died on — the coordinator
synthesizes an error record for it, deals the tasks it never started to
the surviving workers, and the fleet completes.  Only when every worker
has died do the tasks left get error records.

Graceful shutdown: SIGTERM/SIGINT during :func:`run_fleet` requests a
*drain* instead of dying mid-merge — workers finish the task they are
on and start no other, the coordinator synthesizes ``cancelled``
records for every task not started, and the caller still gets a
complete, schema-versioned :class:`FleetReport` with ``partial=True``.
A second signal falls through to the default handler (hard kill) — the
escape hatch when a drain itself wedges.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api import Session
from repro.cache.store import VerdictCache, merge_cache_stats
from repro.core.options import RunOptions
from repro.core.procs import WorkerProcess, mp_context, wait
from repro.fleet.merge import merged_telemetry
from repro.fleet.refs import FleetTask, WorkloadRef, make_tasks
from repro.fleet.report import CANCELLED_PREFIX, FleetReport, FleetRunRecord
from repro.fleet.worker import run_task_with_retry, worker_main
from repro.isa.instructions import Instruction

#: Tasks a worker holds at once: the one it runs and the next.  With
#: one, every task waits a coordinator round trip before it starts;
#: with two, the next task is already in the worker's inbox when the
#: current one ends.  More gains nothing.
WORKER_DEPTH = 2

#: Worker processes when the caller names none: one per CPU, at most
#: four.  A worker more than the host has CPUs only adds contention
#: (on 2 CPUs a 62-workload sweep ran 1.54x faster than serial with 2
#: workers and 1.45x with 4); the merged report is the same at any
#: count.
DEFAULT_WORKERS = min(4, os.cpu_count() or 1)

#: How long the coordinator waits for a record or a worker exit before
#: it checks the stop event again, seconds.
_POLL_INTERVAL = 0.1

#: ``FleetRunRecord.worker`` of a task that was never handed to a worker.
NO_WORKER = -1


# Uncalled: tasks go to workers in index order, so nothing orders
# them by similarity any more.  It stays (with the three helpers
# below it) only because ``perfbench/tracer.py`` wraps
# ``repro.fleet.engine.cluster_tasks`` by name and fails to install
# without it; all four go once that tracer row does.
def cluster_tasks(tasks: Sequence[FleetTask]) -> List[FleetTask]:
    """Tasks reordered so statically-similar workloads are adjacent.

    Each task's workload is resolved and assembled (deterministic, no
    execution) and a simhash of its opcodes drives a nearest-neighbour
    chain.  A task whose workload will not resolve keeps simhash 0 — it
    keeps a place in the order, and the failure surfaces as a normal
    run record.
    """
    pairs = []
    for task in tasks:
        try:
            image = task.ref.resolve().image()
        except Exception:
            pairs.append((task, 0))
        else:
            pairs.append((task, _simhash64(image.text)))
    return _cluster_order(pairs)


_NGRAM = 3


def _feature_hash(feature: str) -> int:
    digest = hashlib.sha256(feature.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _simhash64(text: Sequence[Instruction], ngram: int = _NGRAM) -> int:
    """64-bit simhash over opcode n-grams.

    Classic Charikar construction: each weighted feature votes +w/-w on
    every bit of its (stable, sha256-based) 64-bit hash; the result
    keeps the sign.  Images differing by a patched constant share every
    n-gram and collide; structurally different programs diverge.
    """
    weights: Dict[str, int] = {}
    opcodes = [inst.opcode.name for inst in text]
    if not opcodes:
        return 0
    if len(opcodes) < ngram:
        weights["|".join(opcodes)] = 1
    else:
        for i in range(len(opcodes) - ngram + 1):
            feature = "|".join(opcodes[i:i + ngram])
            weights[feature] = weights.get(feature, 0) + 1
    vector = [0] * 64
    for feature, weight in weights.items():
        bits = _feature_hash(feature)
        for bit in range(64):
            if bits & (1 << bit):
                vector[bit] += weight
            else:
                vector[bit] -= weight
    value = 0
    for bit in range(64):
        if vector[bit] > 0:
            value |= 1 << bit
    return value


def _hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


@dataclass
class _Clustered:
    index: int
    simhash: int
    item: object = field(repr=False, default=None)


def _cluster_order(pairs: Sequence[Tuple[object, int]]) -> List[object]:
    """Order items so near-duplicates are adjacent.

    ``pairs`` is ``(item, simhash)``.  Greedy nearest-neighbour chaining
    from the smallest simhash: deterministic, O(n²) on n≤ hundreds of
    workloads, and good enough to keep a variant family together.
    """
    remaining = [
        _Clustered(index=i, simhash=s, item=item)
        for i, (item, s) in enumerate(pairs)
    ]
    if not remaining:
        return []
    remaining.sort(key=lambda c: (c.simhash, c.index))
    ordered = [remaining.pop(0)]
    while remaining:
        head = ordered[-1]
        best = min(
            remaining,
            key=lambda c: (_hamming64(head.simhash, c.simhash), c.index),
        )
        remaining.remove(best)
        ordered.append(best)
    return [c.item for c in ordered]


def _normalize_tasks(
    work: Sequence[Union[FleetTask, WorkloadRef]],
    options: Optional[RunOptions],
) -> List[FleetTask]:
    if all(isinstance(item, FleetTask) for item in work):
        tasks = list(work)
        indexes = [t.index for t in tasks]
        if sorted(indexes) != list(range(len(tasks))):
            raise ValueError(
                "FleetTask indexes must be a permutation of 0..N-1"
            )
        return tasks
    if any(isinstance(item, FleetTask) for item in work):
        raise TypeError("mix of FleetTask and WorkloadRef items")
    return make_tasks(list(work), options)


class _DrainGuard:
    """Install drain-on-signal handlers for the duration of a fleet run.

    First SIGTERM/SIGINT sets the stop event (drain); the handlers are
    then restored, so a second signal gets the default behavior (hard
    exit).  Outside the main thread — a fleet launched from a test
    runner thread or the serve daemon — signal handlers cannot be
    installed and the guard is inert.
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self, stop_event) -> None:
        self.stop_event = stop_event
        self._saved: Dict[int, object] = {}

    def _on_signal(self, signum, frame) -> None:
        self.stop_event.set()
        self.restore()

    def install(self) -> "_DrainGuard":
        if threading.current_thread() is not threading.main_thread():
            return self
        for sig in self.SIGNALS:
            try:
                self._saved[sig] = signal.signal(sig, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass
        return self

    def restore(self) -> None:
        while self._saved:
            sig, handler = self._saved.popitem()
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass


_CANCELLED = (
    f"{CANCELLED_PREFIX}: shutdown requested before this task started "
    "(fleet drained in-flight work)"
)


def _synthesized(task: FleetTask, worker_id: int, error: str):
    """The record of a task that produced none of its own."""
    return FleetRunRecord(
        index=task.index, name=task.ref.name, worker=worker_id,
        attempts=0, error=error,
    )


def _run_serial(tasks, max_retries, stop_event, cache_dir) -> tuple:
    """The workers=1 path: same retry loop, same warm session, in-process."""
    session = Session(
        cache=VerdictCache(disk_dir=cache_dir) if cache_dir else None
    )
    records = []
    for task in sorted(tasks, key=lambda t: t.index):
        if stop_event.is_set():
            records.append(_synthesized(task, 0, _CANCELLED))
            continue
        wire = run_task_with_retry(
            session, task, worker_id=0, max_retries=max_retries
        )
        records.append(FleetRunRecord.from_wire(wire))
    cache_parts = (
        [session.cache.snapshot()] if session.cache is not None else []
    )
    return records, cache_parts


class _Dispatch:
    """The scheduling rule, with no processes or pipes in it: task *k*
    in index order belongs to worker ``k % workers``, which holds at
    most :data:`WORKER_DEPTH` tasks, and the tasks a dead worker never
    started go to the survivors."""

    def __init__(self, tasks: Sequence[FleetTask], workers: int):
        ordered = sorted(tasks, key=lambda t: t.index)
        #: Worker id -> its tasks not handed out yet, in index order.
        self.queued = {
            wid: collections.deque(ordered[wid::workers])
            for wid in range(workers)
        }
        #: Worker id -> tasks handed to it and not reported, oldest first.
        self.held: Dict[int, List[FleetTask]] = {w: [] for w in self.queued}
        #: Workers that have neither sent their sentinel nor died.
        self.live = set(range(workers))
        #: Whether the live workers were sent the ``None`` ending their loop.
        self.closed = False
        self.records: Dict[int, FleetRunRecord] = {}
        self.cache_parts: Dict[int, dict] = {}

    def hand_out(self, draining: bool) -> List[tuple]:
        """``(worker, task or None)`` pairs to put in the inboxes now:
        each live worker topped up to WORKER_DEPTH, and one ``None``
        each on a drain or once no task is left anywhere (until then a
        task a live worker holds may come back, if that worker dies)."""
        if self.closed:
            return []
        out = []
        if not draining:
            for wid in sorted(self.live):
                queued, held = self.queued[wid], self.held[wid]
                while queued and len(held) < WORKER_DEPTH:
                    held.append(queued.popleft())
                    out.append((wid, held[-1]))
            if any(self.held[wid] or self.queued[wid] for wid in self.live):
                return out
        out.extend((wid, None) for wid in sorted(self.live))
        self.closed = True
        return out

    def receive(self, wid: int, msg: dict) -> None:
        """One message from worker ``wid``: a record or its sentinel."""
        if msg.get("kind") == "worker-done":
            self.live.discard(wid)
            if msg.get("cache"):
                self.cache_parts[wid] = msg["cache"]
            return
        # A worker reports its tasks in the order it was handed them.
        self.held[wid].pop(0)
        self.records[msg["index"]] = FleetRunRecord.from_wire(msg)

    def bury(self, wid: int, exitcode: int) -> None:
        """Account for worker ``wid``, which exited without a sentinel."""
        if wid not in self.live:
            return
        self.live.discard(wid)
        held, self.held[wid] = self.held[wid], []
        if held:
            self.records[held[0].index] = _synthesized(
                held[0], wid,
                f"worker {wid} died before finishing this task "
                f"(exit code {exitcode})",
            )
        # Never started: dealt to the survivors in turn.  With none
        # left they stay queued here, and finish() errors them.
        orphans = held[1:] + list(self.queued[wid])
        survivors = sorted(self.live) or [wid]
        self.queued[wid].clear()
        for k, task in enumerate(orphans):
            self.queued[survivors[k % len(survivors)]].append(task)

    def finish(self, draining: bool) -> tuple:
        """Records in task order and cache snapshots in worker order,
        once no worker is live."""
        for wid, held in self.held.items():  # stopped by a drain
            for task in held:
                self.records[task.index] = _synthesized(task, wid, _CANCELLED)
        for queued in self.queued.values():
            for task in queued:
                self.records[task.index] = _synthesized(
                    task, NO_WORKER, _CANCELLED if draining
                    else "every worker died before this task started",
                )
        records = [self.records[i] for i in sorted(self.records)]
        # Deterministic merge: worker order, not arrival order.
        parts = [self.cache_parts[w] for w in sorted(self.cache_parts)]
        return records, parts


def _collect(dispatch: _Dispatch, workers) -> None:
    """Take in what each live worker sent; bury the ones that exited."""
    for wid in sorted(dispatch.live):
        exitcode = workers[wid].drain(functools.partial(dispatch.receive, wid))
        if exitcode is not None:
            dispatch.bury(wid, exitcode)


def _run_pool(ctx, tasks, workers, max_retries, stop_event, cache_dir):
    """Start ``workers`` processes, feed them, and wait them out."""
    dispatch = _Dispatch(tasks, workers)
    procs = {}

    def feed() -> None:
        for wid, item in dispatch.hand_out(stop_event.is_set()):
            procs[wid].put(item)

    try:
        for wid in range(workers):
            procs[wid] = WorkerProcess(
                ctx, worker_main, wid, max_retries, stop_event, cache_dir
            )
        feed()
        while dispatch.live:
            wait([procs[w] for w in dispatch.live], _POLL_INTERVAL)
            _collect(dispatch, procs)
            feed()
        return dispatch.finish(stop_event.is_set())
    finally:
        for proc in procs.values():
            proc.close()


def run_fleet(
    work: Sequence[Union[FleetTask, WorkloadRef]],
    options: Optional[RunOptions] = None,
    workers: int = DEFAULT_WORKERS,
    max_retries: int = 1,
    stop_event=None,
    cache_dir: Optional[str] = None,
) -> FleetReport:
    """Run a workload set across N processes and merge the results.

    ``work`` is either a list of :class:`WorkloadRef` (numbered here,
    all sharing ``options``) or pre-built :class:`FleetTask` items with
    per-task options (seed sweeps).  ``workers`` (default
    :data:`DEFAULT_WORKERS`) is clamped to the task count; ``workers=1``
    runs in-process with identical semantics.

    ``cache_dir`` attaches every worker's Session to one shared on-disk
    verdict cache; the merged report gains ``cache_stats`` (per-worker
    counters summed in worker order — deterministic regardless of
    arrival order).  Records stay bit-identical with or without it.

    SIGTERM/SIGINT (or an externally provided ``stop_event``) drains:
    in-flight tasks finish, the rest become ``cancelled`` records, and
    the merged report comes back with ``partial=True``.  Pass a
    pre-built ``multiprocessing`` event to drive drains
    programmatically; signal handlers are installed either way when on
    the main thread.
    """
    started = time.perf_counter()
    tasks = _normalize_tasks(work, options)
    workers = max(1, min(int(workers), len(tasks) or 1))
    ctx = mp_context()
    if stop_event is None:
        stop_event = ctx.Event() if workers > 1 else threading.Event()
    guard = _DrainGuard(stop_event).install()
    try:
        if workers == 1:
            records, cache_parts = _run_serial(
                tasks, max_retries, stop_event, cache_dir
            )
        else:
            records, cache_parts = _run_pool(
                ctx, tasks, workers, max_retries, stop_event, cache_dir
            )
    finally:
        guard.restore()

    return FleetReport(
        workers=workers,
        max_retries=max_retries,
        runs=records,
        wall_seconds=time.perf_counter() - started,
        telemetry=merged_telemetry(records),
        partial=stop_event.is_set(),
        cache_stats=(
            merge_cache_stats(cache_parts) if cache_dir else None
        ),
    )
