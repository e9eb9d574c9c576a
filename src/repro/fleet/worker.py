"""Fleet worker: one process, one warm Session, one shard of tasks.

The worker entrypoint (:func:`worker_main`) is a top-level function so
it survives both ``fork`` and ``spawn`` start methods.  Each worker
builds a single :class:`repro.api.Session` and runs its whole shard
through it, so the translated-block store, tag-set interner, and
assemble memo stay warm across the shard — the same reuse a serial
sweep gets, without sharing any mutable machine state between runs.

Retry policy (:func:`run_task_with_retry`): a run whose result reason is
``watchdog`` (wall-clock stall) or that recorded contained
``MonitorFault``s is scheduling noise, not a property of the workload —
it is retried up to ``max_retries`` times, on a fresh machine each
attempt.  Deterministic outcomes (verdicts, rule firings) are never
retried; a genuinely wedged workload exhausts its retries and surfaces
as a failed record with its retry history intact.

Retry *timing* is deterministic too (:func:`retry_delay`): the delay is
an exponential base with jitter derived from the task's fault seed,
index, and attempt number — not from ``random`` — so a chaos sweep
replays with a bit-identical schedule.  ``max_retry_wall`` caps the
*planned* total of those delays per task; because the plan is
deterministic, where a sweep gives up is reproducible as well.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, List, Optional

from repro.api import Session
from repro.cache.store import VerdictCache
from repro.core.procs import retry_delay
from repro.core.report import RunReport
from repro.fleet.refs import FleetTask

#: Exponential backoff base between retry attempts, seconds.
DEFAULT_BACKOFF = 0.05
#: Cap on the summed planned retry delays per task, seconds.
DEFAULT_MAX_RETRY_WALL = 30.0

RETRY_WATCHDOG = "watchdog"
RETRY_MONITOR_FAULT = "monitor-fault"
RETRY_ERROR = "error"


def retry_reason(report: RunReport) -> Optional[str]:
    """Why this run should be retried, or None if it stands.

    Only transient, machine-level outcomes qualify: a watchdog kill
    (the host stalled, not the guest) or a contained monitor fault.
    """
    if report.result.reason == "watchdog":
        return RETRY_WATCHDOG
    if report.monitor_faults:
        return RETRY_MONITOR_FAULT
    return None


def run_task_with_retry(
    session: Session,
    task: FleetTask,
    worker_id: int = 0,
    max_retries: int = 1,
    backoff: float = DEFAULT_BACKOFF,
    max_retry_wall: float = DEFAULT_MAX_RETRY_WALL,
    sleep: Callable[[float], None] = time.sleep,
    runner: Optional[Callable[..., RunReport]] = None,
) -> dict:
    """Run one task (with retries) and return its wire record.

    ``runner(workload, options, telemetry)`` is injectable so the retry
    path is unit-testable without multiprocessing or a real stall; the
    default runs through the session's warm engine.  Retries stop early
    once the *planned* backoff total would exceed ``max_retry_wall``
    (a deterministic budget — see :func:`retry_delay`).
    """
    started = time.perf_counter()
    retries: List[str] = []
    report: Optional[RunReport] = None
    spans: Optional[List[dict]] = None
    error: Optional[str] = None
    ok: Optional[bool] = None

    workload = None
    try:
        workload = task.ref.resolve()
    except Exception:
        error = traceback.format_exc()

    if runner is None:
        runner = lambda w, o, t: session.run_workload(  # noqa: E731
            w, options=o, telemetry=t
        )

    attempt = 0
    planned_wall = 0.0
    while workload is not None and attempt <= max_retries:
        attempt += 1
        error = None
        # A fresh hub per attempt: telemetry from a retried (discarded)
        # attempt must not leak into the merged fleet registry.
        hub = task.options.make_telemetry()
        try:
            report = runner(workload, task.options, hub)
        except Exception:
            report = None
            error = traceback.format_exc()
            reason = RETRY_ERROR
        else:
            reason = retry_reason(report)
        if reason is None:
            break
        if attempt <= max_retries:
            delay = retry_delay(
                backoff, attempt, f"{task.options.fault_seed}:{task.index}"
            )
            if planned_wall + delay > max_retry_wall:
                break  # retry budget spent; the last outcome stands
            planned_wall += delay
            retries.append(reason)
            if delay > 0:
                sleep(delay)

    if report is not None and workload is not None:
        ok = workload.classified_correctly(report)
        if task.options.trace and hub is not None and hub.tracer is not None:
            spans = [s.to_dict() for s in hub.tracer.finished()]

    return {
        "kind": "run",
        "index": task.index,
        "name": task.ref.name,
        "worker": worker_id,
        "attempts": max(attempt, 1),
        "retries": retries,
        "ok": ok,
        "report": report.to_dict() if report is not None else None,
        "spans": spans,
        "error": error,
        "elapsed": time.perf_counter() - started,
    }


def worker_main(
    worker_id: int,
    tasks: List[FleetTask],
    queue,
    max_retries: int = 1,
    backoff: float = DEFAULT_BACKOFF,
    stop_event=None,
    max_retry_wall: float = DEFAULT_MAX_RETRY_WALL,
    cache_dir: Optional[str] = None,
) -> None:
    """Process entrypoint: drain a shard, stream records, then a sentinel.

    Records stream as each task finishes (the coordinator shows progress
    and merges incrementally); the final ``worker-done`` message carries
    the worker's warm-engine statistics for the fleet summary.

    With ``cache_dir`` the worker's Session runs against the shared
    on-disk verdict cache.  Sharing is merge-free by construction: keys
    are content addresses, so two workers racing on the same key write
    identical entries, and records stay bit-identical to uncached runs
    whichever worker's write lands.

    ``stop_event`` is the coordinator's drain request (SIGTERM/SIGINT):
    when set, the worker finishes the task it is on, skips the rest of
    its shard, and sends its sentinel — the coordinator synthesizes
    ``cancelled`` records for the skipped tasks and marks the fleet
    report partial.
    """
    session = Session(
        cache=VerdictCache(disk_dir=cache_dir) if cache_dir else None
    )
    for task in tasks:
        if stop_event is not None and stop_event.is_set():
            break
        record = run_task_with_retry(
            session,
            task,
            worker_id=worker_id,
            max_retries=max_retries,
            backoff=backoff,
            max_retry_wall=max_retry_wall,
        )
        queue.put(record)
    queue.put({
        "kind": "worker-done",
        "worker": worker_id,
        "runs": session.runs,
        "engine": session.engine.stats(),
        "cache": (
            session.cache.snapshot() if session.cache is not None else None
        ),
    })
