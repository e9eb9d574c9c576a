"""The worker supervisor: dispatch, health-check, contain, restart.

The serve daemon's execution layer is a pool of warm worker *processes*
(:func:`repro.serve.worker.serve_worker_main`).  Processes, not threads,
for the same reason the fleet uses them — a guest run that wedges the
interpreter or a monitor bug that corrupts state must be killable
without taking the daemon down.  The supervisor owns the pool and turns
process-level failure into protocol-level answers:

* **dispatch** — one job per worker at a time; new work is only accepted
  when a worker is idle (the *bounded* admission queue upstream holds
  everything else).
* **health checks** — the supervisor thread sees every worker exit and
  watches per-job deadlines; a worker that blows its submission's
  deadline is killed outright (the guest's virtual-time budget normally
  ends runs long before this — a blown wall deadline means the machine,
  not the guest, is stuck).
* **containment** — a crashed or killed worker's in-flight job is either
  retried on another attempt (crashes are transient machine faults, the
  same reasoning as the fleet's watchdog retries) or answered with a
  synthesized terminal ``error`` event.  Never silently dropped.
* **self-healing** — dead workers are respawned with exponential
  backoff (:data:`RESTART_BACKOFF` doubling up to
  :data:`RESTART_BACKOFF_MAX`); a worker that keeps dying parks
  progressively longer, shrinking pool capacity gracefully instead of
  crash-looping.  A successful job resets the backoff.

Retry backoff is deterministic: the delay is derived from the job id
and attempt number (crc32 jitter over an exponential base), so a chaos
run replays with the same schedule.

Threading model: each worker is a :class:`repro.core.procs.WorkerProcess`
(own inbox, own result pipe, as in the fleet), and one supervisor thread
waits on all their pipes and exits, hands each message to
:meth:`Supervisor._handle_message`, buries the workers that exited
(after reading all they sent), and runs the deadline/retry/restart tick
every :data:`TICK` seconds; it and ``try_submit`` serialize on one lock.
Event callbacks (``on_event``, ``on_idle``) fire from that thread — the
asyncio server bridges them with ``call_soon_threadsafe``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.procs import WorkerProcess, mp_context, retry_delay, wait
from repro.isa import blockjit
from repro.serve.worker import serve_worker_main

#: Default per-submission wall deadline, seconds.
DEFAULT_JOB_TIMEOUT = 60.0
#: Base/ceiling of the exponential worker-restart backoff, seconds.
RESTART_BACKOFF = 0.1
RESTART_BACKOFF_MAX = 5.0
#: Base of the deterministic job-retry backoff, seconds.
RETRY_BACKOFF = 0.05
#: Period of the deadline/retry/restart tick, and the longest the
#: supervisor thread waits for a message, seconds.
TICK = 0.02

STATE_STARTING = "starting"
STATE_IDLE = "idle"
STATE_BUSY = "busy"
STATE_RESTARTING = "restarting"
STATE_STOPPED = "stopped"

#: Failure kinds a worker death is attributed to.
FAIL_CRASH = "worker-crash"
FAIL_TIMEOUT = "timeout"
FAIL_SHUTDOWN = "shutting-down"


@dataclass
class _Job:
    id: str
    spec: Dict[str, object]
    on_event: Callable[[Dict[str, object]], None]
    timeout: float
    max_retries: int
    attempt: int = 0
    submitted_at: float = 0.0
    dispatched_at: float = 0.0
    retry_at: float = 0.0
    done: bool = False


@dataclass
class _Worker:
    wid: int
    proc: Optional[WorkerProcess] = None
    state: str = STATE_STARTING
    job: Optional[_Job] = None
    #: What this process's death is blamed on.
    fail_kind: str = FAIL_CRASH
    consecutive_failures: int = 0
    restart_at: float = 0.0
    jobs_done: int = 0
    restarts: int = 0


class Supervisor:
    """A supervised pool of serve workers (see module docstring)."""

    def __init__(
        self,
        workers: int = 2,
        job_timeout: float = DEFAULT_JOB_TIMEOUT,
        max_retries: int = 1,
        metrics=None,
        on_idle: Optional[Callable[[], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.on_idle = on_idle
        self._metrics = metrics
        self._ctx = mp_context()
        self._lock = threading.RLock()
        self._workers: Dict[int, _Worker] = {
            wid: _Worker(wid=wid) for wid in range(workers)
        }
        self._jobs: Dict[str, _Job] = {}
        self._retries: List[_Job] = []
        self._job_ids = itertools.count()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self.started:
                return
            self.started = True
            for worker in self._workers.values():
                self._spawn(worker)
        self._thread = threading.Thread(
            target=self._run, name="serve-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop the pool.  In-flight jobs are answered with a terminal
        ``shutting-down`` error (drain first for a graceful exit)."""
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
        terminal: List[_Job] = []
        with self._lock:
            for worker in self._workers.values():
                if worker.job is not None and not worker.job.done:
                    terminal.append(worker.job)
                    worker.job = None
                if worker.proc is not None:
                    worker.proc.put(None)
            terminal += [job for job in self._retries if not job.done]
            self._retries.clear()
        for job in terminal:
            self._finish(job, {
                "kind": "error",
                "code": FAIL_SHUTDOWN,
                "error": "daemon shutting down before this job finished",
            })
        deadline = time.monotonic() + join_timeout
        for worker in self._workers.values():
            if worker.proc is not None:
                worker.proc.close(max(0.0, deadline - time.monotonic()))
                worker.state = STATE_STOPPED
        self._sample_workers()

    # -- submission --------------------------------------------------------
    def next_job_id(self) -> str:
        return f"job-{next(self._job_ids)}"

    def try_submit(
        self,
        spec: Dict[str, object],
        on_event: Callable[[Dict[str, object]], None],
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        job_id: Optional[str] = None,
    ) -> Optional[str]:
        """Dispatch one job if a worker is idle; return its id or None.

        ``None`` means "no capacity right now" — the caller keeps the
        submission queued and waits for an idle signal.  Pending retries
        have priority over new work, so a retrying job is never starved
        by fresh traffic.
        """
        if self._stopping.is_set():
            return None
        with self._lock:
            now = time.monotonic()
            if any(j.retry_at <= now for j in self._retries):
                return None
            worker = self._idle_worker()
            if worker is None:
                return None
            job = _Job(
                id=job_id if job_id is not None else self.next_job_id(),
                spec=spec,
                on_event=on_event,
                timeout=timeout if timeout is not None else self.job_timeout,
                max_retries=(
                    max_retries if max_retries is not None
                    else self.max_retries
                ),
                submitted_at=now,
            )
            self._jobs[job.id] = job
            self._dispatch(worker, job)
            return job.id

    def in_flight(self) -> int:
        with self._lock:
            return len(self._jobs)

    def idle_workers(self) -> int:
        with self._lock:
            return sum(
                1 for w in self._workers.values() if w.state == STATE_IDLE
            )

    def live_workers(self) -> int:
        with self._lock:
            return sum(
                1 for w in self._workers.values()
                if w.proc is not None and w.proc.is_alive()
            )

    def kill_worker(self, wid: int) -> bool:
        """Hard-kill one worker process (the chaos monkey's lever).

        Containment and restart then run through the exact same burial
        path as an organic crash.
        """
        with self._lock:
            worker = self._workers.get(wid)
            if (worker is None or worker.proc is None
                    or not worker.proc.is_alive()):
                return False
            worker.proc.kill()
            return True

    def busy_worker_ids(self) -> List[int]:
        with self._lock:
            return [
                w.wid for w in self._workers.values()
                if w.state == STATE_BUSY
            ]

    def generations(self) -> Dict[int, int]:
        """Per-slot process generation (1 + restarts): how many times
        each pool slot has (re)spawned its worker."""
        with self._lock:
            return {w.wid: 1 + w.restarts for w in self._workers.values()}

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "workers": {
                    w.wid: {
                        "state": w.state,
                        "jobs_done": w.jobs_done,
                        "restarts": w.restarts,
                        "alive": bool(w.proc is not None
                                      and w.proc.is_alive()),
                    }
                    for w in self._workers.values()
                },
                "in_flight": len(self._jobs),
                "pending_retries": len(self._retries),
            }

    # -- internals ---------------------------------------------------------
    def _idle_worker(self) -> Optional[_Worker]:
        for worker in self._workers.values():
            if worker.state == STATE_IDLE:
                return worker
        return None

    def _spawn(self, worker: _Worker) -> None:
        worker.proc = WorkerProcess(self._ctx, serve_worker_main, worker.wid)
        worker.state = STATE_STARTING
        worker.job = None
        worker.fail_kind = FAIL_CRASH
        self._sample_workers()

    def _dispatch(self, worker: _Worker, job: _Job) -> None:
        job.attempt += 1
        job.dispatched_at = time.monotonic()
        worker.job = job
        worker.state = STATE_BUSY
        worker.proc.put({
            "id": job.id,
            "attempt": job.attempt,
            "spec": job.spec,
        })
        self._sample_workers()

    def _sample_workers(self) -> None:
        if self._metrics is None:
            return
        active = sum(
            1 for w in self._workers.values()
            if w.state in (STATE_IDLE, STATE_BUSY, STATE_STARTING)
        )
        self._metrics.gauge("serve_active_workers").set(active)

    def _observe_latency(self, job: _Job) -> Dict[str, float]:
        now = time.monotonic()
        queue_wait = max(0.0, job.dispatched_at - job.submitted_at)
        exec_seconds = max(0.0, now - job.dispatched_at)
        total = max(0.0, now - job.submitted_at)
        if self._metrics is not None:
            for stage, seconds in (
                ("queue", queue_wait), ("exec", exec_seconds), ("total", total)
            ):
                self._metrics.histogram(
                    "serve_latency_seconds", stage=stage
                ).observe(seconds)
        return {
            "queue_wait": queue_wait,
            "exec": exec_seconds,
            "total": total,
            "attempts": job.attempt,
        }

    def _finish(self, job: _Job, event: Dict[str, object]) -> None:
        """Deliver a terminal event for ``job`` exactly once."""
        with self._lock:
            if job.done:
                return
            job.done = True
            self._jobs.pop(job.id, None)
            timing = self._observe_latency(job)
        event = dict(event)
        event["job"] = job.id
        event["timing"] = timing
        if self._metrics is not None:
            self._metrics.counter(
                "serve_jobs_completed_total", kind=str(event["kind"])
            ).inc()
        self._forward(job, event)

    def _absorb_report(self, report: object) -> None:
        """Fold one finished run's report counters into the daemon
        registry — per-run numbers live in the report itself; the pool's
        ``/metrics`` exposes the running totals across every run."""
        if self._metrics is None or not isinstance(report, dict):
            return
        self._metrics.counter("harrier_events_emitted_total").inc(
            float(report.get("event_count", 0) or 0)
        )
        self._metrics.counter("harrier_warnings_total").inc(
            float(len(report.get("warnings") or ()))
        )
        prov = report.get("provenance")
        if isinstance(prov, dict):
            for key, family in (
                ("sources", "provenance_sources_total"),
                ("waypoints", "provenance_waypoints_total"),
                ("evidence", "provenance_evidence_total"),
            ):
                self._metrics.counter(family).inc(
                    float(prov.get(key, 0) or 0)
                )

    def _absorb_engine(self, engine: object, wid: object) -> None:
        """Fold one run's match-cost snapshot (the worker Secpert's
        always-on :class:`~repro.expert.rete.MatchStats`) into the
        daemon-lifetime registry."""
        if self._metrics is None or not isinstance(engine, dict):
            return
        self._metrics.histogram("secpert_match_seconds").observe(
            float(engine.get("match_seconds", 0) or 0)
        )
        self._metrics.counter("secpert_alpha_activations_total").inc(
            float(engine.get("alpha_activations", 0) or 0)
        )
        worker = str(wid)
        self._metrics.gauge(
            "secpert_beta_tokens_live", worker=worker
        ).set(float(engine.get("beta_tokens_live", 0) or 0))
        self._metrics.gauge(
            "secpert_agenda_size", worker=worker
        ).set(float(engine.get("agenda_size", 0) or 0))

    def _absorb_code_caches(self, msg: Dict[str, object],
                            wid: object) -> None:
        """Mirror a worker's block-JIT code cache (size, compiles,
        evictions, fused blocks, op table) and library plan tables
        (entries, plans) into per-worker ``blockjit_*`` and
        ``blockcache_library_*`` gauges."""
        if self._metrics is None:
            return
        jit, library = msg.get("jit"), msg.get("library")
        if isinstance(jit, dict):
            blockjit.sample_gauges(self._metrics, jit, worker=str(wid))
        if isinstance(library, dict):
            for key, value in library.items():
                self._metrics.gauge(
                    f"blockcache_{key}", worker=str(wid)
                ).set(float(value))

    def _forward(self, job: _Job, event: Dict[str, object]) -> None:
        try:
            job.on_event(event)
        except Exception:
            pass

    def _signal_idle(self) -> None:
        if self.on_idle is not None:
            try:
                self.on_idle()
            except Exception:
                pass

    # -- supervisor thread -------------------------------------------------
    def _run(self) -> None:
        next_tick = 0.0
        while not self._stopping.is_set():
            # Only this thread spawns and buries, so no lock is needed.
            live = [w for w in self._workers.values() if w.proc]
            wait([w.proc for w in live], TICK)
            for worker in live:
                exitcode = worker.proc.drain(self._handle_message)
                if exitcode is not None:
                    self._bury(worker, exitcode)
            now = time.monotonic()
            if now >= next_tick:
                self._tick()
                next_tick = now + TICK

    def _handle_message(self, msg: Dict[str, object]) -> None:
        kind = msg.get("kind")
        wid = msg.get("worker")
        became_idle = False
        with self._lock:
            worker = self._workers.get(wid)
            if worker is None:
                return
            if kind == "ready":
                worker.state = STATE_IDLE
                worker.job = None
                became_idle = True
                self._sample_workers()
            elif kind in ("warning", "result", "error"):
                job = self._jobs.get(msg.get("job"))
                if job is None or job.done:
                    return
                if msg.get("attempt") != job.attempt:
                    return  # stale message from a killed attempt
                if kind == "warning":
                    self._forward(job, {
                        "kind": "warning",
                        "job": job.id,
                        "seq": msg["seq"],
                        "warning": msg["warning"],
                    })
                    return
                # result / error: terminal
                if worker.job is job:
                    worker.job = None
                    worker.consecutive_failures = 0
                    worker.jobs_done += 1
        if kind == "result":
            self._absorb_report(msg.get("report"))
            self._absorb_engine(msg.get("engine"), wid)
            self._absorb_code_caches(msg, wid)
            self._finish(job, {
                "kind": "report",
                "report": msg["report"],
                "ok": msg.get("ok"),
                "cached": False,
                "worker": wid,
            })
        elif kind == "error":
            self._finish(job, {
                "kind": "error",
                "code": "run-error",
                "error": msg["error"],
                "worker": wid,
            })
        if became_idle:
            self._signal_idle()

    def _bury(self, worker: _Worker, exitcode: int) -> None:
        """Account for a worker process that exited: everything it sent
        has been handled, so the job it still holds died with it."""
        with self._lock:
            worker.proc.close()
            worker.proc = None
            if self._stopping.is_set():
                worker.state = STATE_STOPPED  # stop() answers its job
                return
            self._schedule_restart(worker, time.monotonic())
        self._contain_failure(worker, worker.fail_kind, exitcode)

    def _tick(self) -> None:
        now = time.monotonic()
        idle_signal = False
        with self._lock:
            for worker in self._workers.values():
                if (worker.state == STATE_RESTARTING
                        and now >= worker.restart_at
                        and not self._stopping.is_set()):
                    self._spawn(worker)
                elif (
                    worker.state == STATE_BUSY
                    and worker.job is not None
                    and worker.fail_kind != FAIL_TIMEOUT
                    and now - worker.job.dispatched_at > worker.job.timeout
                ):
                    # Deadline blown: the machine is stuck, not the
                    # guest (virtual budgets end guest runs).  Kill the
                    # worker; its burial answers or retries the job.
                    worker.fail_kind = FAIL_TIMEOUT
                    worker.proc.kill()
            # Re-dispatch ready retries onto idle workers.
            for job in list(self._retries):
                if job.retry_at > now or job.done:
                    continue
                worker = self._idle_worker()
                if worker is None:
                    break
                self._retries.remove(job)
                self._dispatch(worker, job)
            if not self._retries and self._idle_worker() is not None:
                idle_signal = True
        if idle_signal:
            self._signal_idle()

    def _schedule_restart(self, worker: _Worker, now: float) -> None:
        worker.consecutive_failures += 1
        worker.restarts += 1
        delay = min(
            RESTART_BACKOFF * (2.0 ** (worker.consecutive_failures - 1)),
            RESTART_BACKOFF_MAX,
        )
        worker.restart_at = now + delay
        worker.state = STATE_RESTARTING
        if self._metrics is not None:
            self._metrics.counter("serve_worker_restarts_total").inc()
        self._sample_workers()

    def _contain_failure(
        self, worker: _Worker, fail_kind: str, exitcode
    ) -> None:
        """Answer or retry the job a dead/killed worker was holding."""
        with self._lock:
            job = worker.job
            worker.job = None
            if job is None or job.done:
                return
            if job.attempt <= job.max_retries:
                job.retry_at = time.monotonic() + retry_delay(
                    RETRY_BACKOFF, job.attempt, job.id
                )
                self._retries.append(job)
                if self._metrics is not None:
                    self._metrics.counter(
                        "serve_retries_total", reason=fail_kind
                    ).inc()
                retry_event = {
                    "kind": "retry",
                    "job": job.id,
                    "reason": fail_kind,
                    "attempt": job.attempt,
                }
                self._forward(job, retry_event)
                return
        detail = (
            f"worker {worker.wid} exceeded the {job.timeout:.1f}s deadline"
            if fail_kind == FAIL_TIMEOUT
            else f"worker {worker.wid} died (exit code {exitcode})"
        )
        self._finish(job, {
            "kind": "error",
            "code": fail_kind,
            "error": (
                f"{detail} after {job.attempt} attempt(s); "
                "synthesized MONITOR_FAULT record"
            ),
            "worker": worker.wid,
        })
