"""The fleet coordinator: shard, spawn, stream, merge.

:func:`run_fleet` takes an ordered task list, splits it across N worker
processes (:func:`shard`), streams per-run records off a result queue as
they finish, and merges them — ordered by task index — into a
:class:`FleetReport` whose per-run report dicts are bit-identical to
running the same tasks serially with the same options.

Determinism contract
--------------------
* Every run happens on a *fresh* machine; workers share nothing but a
  per-process warm engine cache whose reuse is semantics-free (the
  differential suites hold that line).
* Records carry their task index; the coordinator sorts by it, so the
  merged report does not depend on worker count, shard strategy, or
  scheduling.  ``workers=1`` runs the identical code path in-process and
  is the serial baseline the determinism tests compare against.
* Wall-clock facts (``elapsed``, ``wall_seconds``) and scheduling facts
  (``worker``, ``attempts``) live outside the per-run report dicts.

Failure containment: a worker that dies without delivering its sentinel
(segfault, OOM kill) costs only its unfinished tasks — the coordinator
synthesizes error records for them and the fleet completes.

Graceful shutdown: SIGTERM/SIGINT during :func:`run_fleet` requests a
*drain* instead of dying mid-merge — workers finish the task they are
on and skip the rest, the coordinator synthesizes ``cancelled`` records
for skipped tasks, and the caller still gets a complete, schema-
versioned :class:`FleetReport` with ``partial=True``.  A second signal
falls through to the default handler (hard kill) — the escape hatch
when a drain itself wedges.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import signal
import threading
import time
import zlib
from typing import Dict, List, Optional, Sequence, Union

from repro.api import Session
from repro.cache.store import VerdictCache, merge_cache_stats
from repro.cache.triage import cluster_order, simhash64
from repro.core.options import RunOptions
from repro.core.procs import mp_context
from repro.fleet.merge import merged_telemetry
from repro.fleet.refs import FleetTask, WorkloadRef, make_tasks
from repro.fleet.report import CANCELLED_PREFIX, FleetReport, FleetRunRecord
from repro.fleet.worker import (
    DEFAULT_BACKOFF,
    DEFAULT_MAX_RETRY_WALL,
    run_task_with_retry,
    worker_main,
)

SHARD_STRATEGIES = ("interleave", "chunk", "name", "cluster")

#: How long the coordinator waits on the result queue before checking
#: worker liveness, seconds.
_POLL_INTERVAL = 0.1


def shard(
    tasks: Sequence[FleetTask], workers: int, shard_by: str = "interleave"
) -> List[List[FleetTask]]:
    """Split tasks into per-worker shards (some may be empty).

    * ``interleave`` — round-robin by task index: balances mixed-cost
      sweeps (the default).
    * ``chunk`` — contiguous slices: preserves registry locality, so a
      worker's warm engine sees related workloads back to back.
    * ``name`` — stable hash of the workload name: the same workload
      always lands on the same worker regardless of task order (useful
      for seed sweeps repeating each workload many times).
    * ``cluster`` — static-triage similarity order (simhash over opcode
      n-grams, see :mod:`repro.cache.triage`), then contiguous chunks:
      near-duplicate variants share a worker and its warm caches.
      Purely a scheduling choice — the merged report is still ordered
      by task index, so results are unchanged.
    """
    if shard_by not in SHARD_STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {shard_by!r}; "
            f"expected one of {SHARD_STRATEGIES}"
        )
    shards: List[List[FleetTask]] = [[] for _ in range(workers)]
    if shard_by in ("chunk", "cluster"):
        ordered = cluster_tasks(tasks) if shard_by == "cluster" else tasks
        per, extra = divmod(len(ordered), workers)
        start = 0
        for i in range(workers):
            size = per + (1 if i < extra else 0)
            shards[i] = list(ordered[start:start + size])
            start += size
    elif shard_by == "name":
        for task in tasks:
            wid = zlib.crc32(task.ref.name.encode()) % workers
            shards[wid].append(task)
    else:
        for i, task in enumerate(tasks):
            shards[i % workers].append(task)
    return shards


def cluster_tasks(tasks: Sequence[FleetTask]) -> List[FleetTask]:
    """Tasks reordered so statically-similar workloads are adjacent.

    Each task's workload is resolved and assembled (deterministic, no
    execution) and its triage simhash drives a nearest-neighbour chain.
    A task whose workload will not resolve keeps simhash 0 — it still
    lands in a shard, and the failure surfaces as a normal run record.
    """
    pairs = []
    for task in tasks:
        try:
            image = task.ref.resolve().image()
        except Exception:
            pairs.append((task, 0))
        else:
            pairs.append((task, simhash64(image.text)))
    return cluster_order(pairs)


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


def _cancelled_record(task: FleetTask, worker_id: int) -> FleetRunRecord:
    return FleetRunRecord(
        index=task.index,
        name=task.ref.name,
        worker=worker_id,
        attempts=0,
        error=(
            f"{CANCELLED_PREFIX}: shutdown requested before this task "
            "started (fleet drained in-flight work)"
        ),
    )


def _run_serial(
    tasks: List[FleetTask],
    max_retries: int,
    backoff: float,
    stop_event=None,
    max_retry_wall: float = DEFAULT_MAX_RETRY_WALL,
    cache_dir: Optional[str] = None,
) -> tuple:
    """The workers=1 path: same retry loop, same warm session, in-process."""
    session = Session(
        cache=VerdictCache(disk_dir=cache_dir) if cache_dir else None
    )
    records = []
    for task in sorted(tasks, key=lambda t: t.index):
        if stop_event is not None and stop_event.is_set():
            records.append(_cancelled_record(task, worker_id=0))
            continue
        wire = run_task_with_retry(
            session, task, worker_id=0,
            max_retries=max_retries, backoff=backoff,
            max_retry_wall=max_retry_wall,
        )
        records.append(FleetRunRecord.from_wire(wire))
    cache_parts = (
        [session.cache.snapshot()] if session.cache is not None else []
    )
    return records, cache_parts


def _collect(
    procs: Dict[int, "multiprocessing.process.BaseProcess"],
    assigned: Dict[int, List[FleetTask]],
    result_queue,
    stop_event=None,
) -> tuple:
    """Drain the result queue until every worker finished or died."""
    records: Dict[int, FleetRunRecord] = {}
    cache_parts: Dict[int, dict] = {}
    clean_exit: set = set()
    done: set = set()
    while len(done) < len(procs):
        try:
            msg = result_queue.get(timeout=_POLL_INTERVAL)
        except queue_mod.Empty:
            for wid, proc in procs.items():
                if wid not in done and not proc.is_alive():
                    done.add(wid)  # died without a sentinel
            continue
        if msg.get("kind") == "worker-done":
            done.add(msg["worker"])
            clean_exit.add(msg["worker"])
            if msg.get("cache"):
                cache_parts[msg["worker"]] = msg["cache"]
        else:
            records[msg["index"]] = FleetRunRecord.from_wire(msg)
    # Synthesize records for tasks that never reported: cancelled when
    # their worker drained cleanly after a stop request, error when it
    # died under them.
    draining = stop_event is not None and stop_event.is_set()
    for wid, tasks in assigned.items():
        for task in tasks:
            if task.index in records:
                continue
            if draining and wid in clean_exit:
                records[task.index] = _cancelled_record(task, worker_id=wid)
            else:
                exit_code = procs[wid].exitcode
                records[task.index] = FleetRunRecord(
                    index=task.index,
                    name=task.ref.name,
                    worker=wid,
                    attempts=0,
                    error=(
                        f"worker {wid} died before finishing this task "
                        f"(exit code {exit_code})"
                    ),
                )
    ordered_records = [records[i] for i in sorted(records)]
    # Deterministic merge: worker order, not arrival order.
    ordered_parts = [cache_parts[wid] for wid in sorted(cache_parts)]
    return ordered_records, ordered_parts


def run_fleet(
    work: Sequence[Union[FleetTask, WorkloadRef]],
    options: Optional[RunOptions] = None,
    workers: int = 4,
    shard_by: str = "interleave",
    max_retries: int = 1,
    backoff: float = DEFAULT_BACKOFF,
    max_retry_wall: float = DEFAULT_MAX_RETRY_WALL,
    mp_start_method: Optional[str] = None,
    stop_event=None,
    cache_dir: Optional[str] = None,
) -> FleetReport:
    """Run a workload set across N processes and merge the results.

    ``work`` is either a list of :class:`WorkloadRef` (numbered here,
    all sharing ``options``) or pre-built :class:`FleetTask` items with
    per-task options (seed sweeps).  ``workers`` is clamped to the task
    count; ``workers=1`` runs in-process with identical semantics.

    ``cache_dir`` attaches every worker's Session to one shared on-disk
    verdict cache; the merged report gains ``cache_stats`` (per-worker
    counters summed in worker order — deterministic regardless of
    arrival order).  Records stay bit-identical with or without it.

    SIGTERM/SIGINT (or an externally provided ``stop_event``) drains:
    in-flight tasks finish, skipped ones become ``cancelled`` records,
    and the merged report comes back with ``partial=True``.  Pass a
    pre-built event (``multiprocessing.Event()`` — or the matching
    context's event for a custom ``mp_start_method``) to drive drains
    programmatically; signal handlers are installed either way when on
    the main thread.
    """
    started = time.perf_counter()
    tasks = _normalize_tasks(work, options)
    workers = max(1, min(int(workers), len(tasks) or 1))
    ctx = mp_context(mp_start_method)
    if stop_event is None:
        stop_event = ctx.Event() if workers > 1 else threading.Event()
    guard = _DrainGuard(stop_event).install()

    try:
        if workers == 1:
            records, cache_parts = _run_serial(
                tasks, max_retries, backoff,
                stop_event=stop_event, max_retry_wall=max_retry_wall,
                cache_dir=cache_dir,
            )
        else:
            shards = shard(tasks, workers, shard_by)
            result_queue = ctx.Queue()
            procs: Dict[int, object] = {}
            assigned: Dict[int, List[FleetTask]] = {}
            for wid, worker_tasks in enumerate(shards):
                if not worker_tasks:
                    continue
                proc = ctx.Process(
                    target=worker_main,
                    args=(wid, worker_tasks, result_queue,
                          max_retries, backoff, stop_event,
                          max_retry_wall, cache_dir),
                    daemon=True,
                )
                proc.start()
                procs[wid] = proc
                assigned[wid] = worker_tasks
            try:
                records, cache_parts = _collect(
                    procs, assigned, result_queue, stop_event
                )
            finally:
                for proc in procs.values():
                    proc.join(timeout=5.0)
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=5.0)
                result_queue.close()
    finally:
        guard.restore()

    return FleetReport(
        workers=workers,
        shard_by=shard_by,
        max_retries=max_retries,
        runs=records,
        wall_seconds=time.perf_counter() - started,
        telemetry=merged_telemetry(records),
        partial=stop_event.is_set(),
        cache_stats=(
            merge_cache_stats(cache_parts) if cache_dir else None
        ),
    )
