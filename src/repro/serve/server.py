"""The always-on detection daemon: asyncio front, supervised pool back.

``ServeDaemon`` listens on a unix socket (NDJSON, the native protocol)
and optionally on TCP speaking a minimal hand-rolled HTTP/1.1 (the
container has no third-party HTTP stack, and the protocol needs nothing
more than ``POST /submit`` with a chunked NDJSON body plus three GET
endpoints — ``/healthz``, ``/stats``, and an OpenMetrics ``/metrics``
exposition).  Each accepted submission flows::

    client -> admission precheck (draining + tenant rate, hits charged)
           -> cache key (digest thread, off the event loop)
           -> verdict-cache hit?  -> replayed event stream (no slot)
           -> miss: admission slot (bounded queue, tick budget)
           -> pending deque -> supervisor dispatch (idle worker)
           -> worker process (warm Session, TapAnalyzer streaming)
           -> events bridged back thread->loop -> client stream

The ordering is deliberate: the per-tenant rate bucket is charged
*before* the daemon does any per-submission work — assembling an
untrusted inline source, digesting keys — so a rate-limited
client cannot burn daemon CPU or memory, and replaying a cached
submission is still metered even though hits never claim a queue slot
or tick budget.  Assembly and digests run on a dedicated single
thread (the daemon's ``EngineCache`` assemble memo is bounded, so
ever-varying sources cannot grow memory without bound), keeping the
event loop free to accept connections and serve scrapes.

Robustness invariants the tests hold:

* **bounded memory** — the admission controller caps submissions in the
  system; everything past the cap is answered ``rejected:queue-full``
  (HTTP 429) immediately.
* **no lost requests** — every admitted submission ends in exactly one
  terminal event (``report`` or ``error``), even if its worker is
  killed, wedges past its deadline, or the daemon is asked to shut
  down mid-run.
* **graceful shutdown** — :meth:`shutdown` first stops admitting
  (``rejected:shutting-down``), then drains in-flight work, then stops
  the pool.

The supervisor's callbacks fire on its one supervisor thread; the bridge
into asyncio is ``loop.call_soon_threadsafe`` onto per-connection
queues — the only thread/loop touchpoint in the daemon.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, Optional, Tuple

from repro.cache.digest import submission_key
from repro.cache.store import (
    VerdictCache,
    bypass_reason,
    cacheable_report_dict,
)
from repro.core.engine import EngineCache
from repro.core.options import RunOptions
from repro.serve import admission as adm
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    ProtocolError,
    Submission,
    TERMINAL_KINDS,
    accepted_event,
    decode_line,
    encode_event,
    rejected_event,
)
from repro.serve.supervisor import (
    DEFAULT_JOB_TIMEOUT,
    Supervisor,
)
from repro.telemetry.metrics import MetricsRegistry, render_openmetrics

#: A submission line/body larger than this is rejected outright.
MAX_SUBMISSION_BYTES = 4 * 1024 * 1024

#: Bound on the daemon's assemble memo (distinct inline sources kept
#: warm for key computation).  Past this, least-recently-seen
#: templates are dropped and simply re-assemble on next sight.
ASSEMBLE_MEMO_CAPACITY = 128

_REJECT_STATUS = {
    adm.REASON_QUEUE_FULL: (429, "Too Many Requests"),
    adm.REASON_RATE_LIMITED: (429, "Too Many Requests"),
    adm.REASON_TICK_BUDGET: (429, "Too Many Requests"),
    adm.REASON_SHUTTING_DOWN: (503, "Service Unavailable"),
    adm.REASON_INVALID: (400, "Bad Request"),
}


class _PendingJob:
    """One submission being answered: queued for a worker, or a cache
    hit whose events were synthesized without admission."""

    __slots__ = (
        "job_id", "spec", "queue", "timeout",
        "admitted", "cached", "cache_key", "warnings",
    )

    def __init__(
        self,
        job_id: str,
        spec: Optional[Dict[str, object]],
        queue: "asyncio.Queue",
        timeout: Optional[float],
        admitted: bool = True,
        cached: bool = False,
        cache_key: Optional[str] = None,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.queue = queue
        self.timeout = timeout
        #: Holds an admission slot (False for cache hits, which never
        #: consume queue depth or tick budget and must not release one;
        #: their tenant rate token was still charged at precheck).
        self.admitted = admitted
        self.cached = cached
        #: Set on cacheable misses: where to store the fresh result.
        self.cache_key = cache_key
        #: Streamed warning wire dicts accumulated for the store — these
        #: carry ``details`` the report-dict warnings do not, so a hit
        #: can replay the exact event stream.
        self.warnings: list = []


class ServeDaemon:
    """See module docstring.  Construct, ``await start()``, submit."""

    def __init__(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        workers: int = 2,
        queue_limit: int = 64,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        tick_rate: Optional[float] = None,
        tick_burst: Optional[float] = None,
        job_timeout: float = DEFAULT_JOB_TIMEOUT,
        max_retries: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        cache: bool = True,
        cache_dir: Optional[str] = None,
        cache_entries: int = 512,
    ) -> None:
        if unix_path is None and host is None:
            raise ValueError("need a unix socket path and/or an HTTP host")
        self.unix_path = unix_path
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Daemon-side verdict cache: hits are answered in ``_admit``
        #: after the rate precheck but without a queue slot.  Stores
        #: wire-form reports plus the streamed warning events, keyed by
        #: submission content (``repro.cache.digest.submission_key``).
        #: A hit is the stored dict itself: it is only ever read.
        self.cache = (
            VerdictCache(
                capacity=cache_entries,
                disk_dir=cache_dir,
                metrics=self.metrics,
                namespace="serve",
            ) if cache else None
        )
        #: Warm assemble memo for key computation.
        #: Bounded: clients feeding ever-varying sources must not grow
        #: daemon memory (the templates are only a digest warm-up here —
        #: execution happens in worker processes with their own caches).
        self._engine = EngineCache(max_images=ASSEMBLE_MEMO_CAPACITY)
        #: All assembly and digesting of untrusted submissions happens
        #: on this one thread, never on the event loop.
        self._digester = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-digest"
        )
        self.admission = AdmissionController(
            queue_limit=queue_limit,
            rate=rate,
            burst=burst,
            tick_rate=tick_rate,
            tick_burst=tick_burst,
            metrics=self.metrics,
        )
        self.supervisor = Supervisor(
            workers=workers,
            job_timeout=job_timeout,
            max_retries=max_retries,
            metrics=self.metrics,
            on_idle=self._on_worker_idle,
        )
        self._pending: Deque[_PendingJob] = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers = []
        self._closed = False
        self._started_at = time.monotonic()
        #: Whether worker runs record evidence trails by default (a
        #: submission can still opt out via ``options.provenance``).
        self.provenance_enabled = RunOptions().provenance

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        if self._servers:  # idempotent: run_daemon may follow a manual start
            return
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        self._preregister_metrics()
        self.supervisor.start()
        if self.unix_path is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_ndjson, path=self.unix_path,
                limit=MAX_SUBMISSION_BYTES,
            ))
        if self.host is not None:
            server = await asyncio.start_server(
                self._handle_http, host=self.host, port=self.port
            )
            self.port = server.sockets[0].getsockname()[1]
            self._servers.append(server)

    async def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until at least one worker reported ready."""
        deadline = self._loop.time() + timeout
        while self.supervisor.idle_workers() == 0:
            if self._loop.time() > deadline:
                raise TimeoutError("no serve worker became ready")
            await asyncio.sleep(0.02)

    async def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop admitting, optionally drain in-flight work, stop the pool."""
        if self._closed:
            return
        self._closed = True
        self.admission.drain()
        if drain:
            deadline = self._loop.time() + timeout
            while (
                (self.supervisor.in_flight() or self._pending)
                and self._loop.time() < deadline
            ):
                await asyncio.sleep(0.05)
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        await asyncio.get_running_loop().run_in_executor(
            None, self.supervisor.stop
        )
        self._digester.shutdown(wait=False)

    # -- dispatch ----------------------------------------------------------
    def _on_worker_idle(self) -> None:
        # Supervisor thread -> event loop.
        loop = self._loop
        if loop is not None and not self._closed:
            try:
                loop.call_soon_threadsafe(self._kick)
            except RuntimeError:
                pass  # loop already closed during teardown

    def _kick(self) -> None:
        """Dispatch queued submissions onto idle workers (FIFO)."""
        while self._pending:
            job = self._pending[0]
            accepted = self.supervisor.try_submit(
                job.spec,
                on_event=self._make_bridge(job.queue),
                timeout=job.timeout,
                job_id=job.job_id,
            )
            if accepted is None:
                return
            self._pending.popleft()

    def _make_bridge(self, queue: "asyncio.Queue"):
        loop = self._loop

        def on_event(event: Dict[str, object]) -> None:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, event)
            except RuntimeError:
                pass  # loop closed; shutdown already answered the client

        return on_event

    # -- one submission, protocol-independent ------------------------------
    def _invalid(self, detail: str,
                 tenant: str = "default") -> Dict[str, object]:
        """Count one ``invalid-submission`` rejection and return its
        event; every front answers a malformed submission through here."""
        self.metrics.counter(
            "serve_rejected_total", tenant=tenant, reason=adm.REASON_INVALID,
        ).inc()
        return rejected_event(adm.REASON_INVALID, detail)

    async def _admit(
        self, raw: Dict[str, object]
    ) -> Tuple[Optional[_PendingJob], Optional[Dict[str, object]]]:
        """Admission-check one decoded submission.

        Returns ``(pending, None)`` on success — the caller streams from
        ``pending.queue`` — or ``(None, rejected_event)`` on rejection.

        Order matters (module docstring): the admission *precheck*
        (draining + per-tenant rate, hits charged too) runs before any
        per-submission compute; the key digest then runs on the digest
        thread; only a cache miss claims a queue slot and tick
        budget.
        """
        try:
            submission = Submission.from_wire(raw)
        except ProtocolError as exc:
            return None, self._invalid(
                str(exc), str(raw.get("tenant", "default"))
            )
        reason = self.admission.precheck(submission.tenant)
        if reason is not None:
            return None, rejected_event(reason)
        cache_key = await self._loop.run_in_executor(
            self._digester, self._inspect_submission, submission
        )
        if cache_key is not None:
            hit = self.cache.lookup(cache_key)
            if hit is not None:
                # Answered without a queue slot or tick spend (the rate
                # precheck above already metered this submission).
                job = _PendingJob(
                    job_id=self.supervisor.next_job_id(),
                    spec=None,
                    queue=asyncio.Queue(),
                    timeout=None,
                    admitted=False,
                    cached=True,
                )
                self._enqueue_hit(job, hit)
                return job, None
        reason = self.admission.claim_slot(
            submission.tenant, submission.options.max_ticks
        )
        if reason is not None:
            return None, rejected_event(reason)
        job = _PendingJob(
            job_id=self.supervisor.next_job_id(),
            spec=submission.to_wire(),
            queue=asyncio.Queue(),
            timeout=(
                submission.options.wall_timeout
                if submission.options.wall_timeout is not None
                else None
            ),
            cache_key=cache_key,
        )
        self._pending.append(job)
        self._kick()
        return job, None

    def _inspect_submission(self, submission: Submission) -> Optional[str]:
        """The submission's cache key, or None (bypass counted).  Runs
        on the digest thread: it assembles untrusted sources but never
        executes them."""
        if self.cache is None:
            return None
        reason = bypass_reason(submission.options)
        if reason is not None:
            self.cache.bypass(reason)
            return None
        try:
            return submission_key(submission, engine=self._engine)
        except Exception:
            # Unresolvable workload / unassemblable source: let the
            # worker produce the real protocol error.
            return None

    def _enqueue_hit(
        self, job: _PendingJob, hit: Dict[str, object]
    ) -> None:
        """Replay a cached result as the exact event stream a fresh run
        produces: each warning in order, then the terminal report with
        ``cached: True`` and zeroed timing."""
        for seq, warning in enumerate(hit.get("warnings") or ()):
            job.queue.put_nowait({
                "kind": "warning",
                "job": job.job_id,
                "seq": seq,
                "warning": warning,
            })
        job.queue.put_nowait({
            "kind": "report",
            "report": hit["report"],
            "ok": hit.get("ok"),
            "cached": True,
            "worker": None,
            "job": job.job_id,
            "timing": {
                "queue_wait": 0.0, "exec": 0.0, "total": 0.0,
                "attempts": 0,
            },
        })

    async def _stream_events(self, job: _PendingJob, write) -> None:
        """Forward bridged events to ``write`` until a terminal one.

        The stream keeps draining even if the client hung up — the
        admission slot is only released once the job is truly answered,
        so a dead client cannot leak queue depth.
        """
        broken = False
        try:
            while True:
                event = await job.queue.get()
                kind = event.get("kind")
                if kind == "warning":
                    job.warnings.append(event.get("warning"))
                elif kind == "retry":
                    # The retried attempt's warnings are discarded with
                    # it; only the final attempt may populate the cache.
                    job.warnings.clear()
                elif kind == "report" and not event.get("cached"):
                    self._store_result(job, event)
                if not broken:
                    try:
                        await write(encode_event(event))
                    except (ConnectionError, asyncio.CancelledError,
                            OSError):
                        broken = True
                if kind in TERMINAL_KINDS:
                    return
        finally:
            if job.admitted:
                self.admission.release()

    def _store_result(
        self, job: _PendingJob, event: Dict[str, object]
    ) -> None:
        """Remember a fresh terminal report under the job's cache key."""
        if self.cache is None or job.cache_key is None:
            return
        report = event.get("report")
        if not isinstance(report, dict) or not cacheable_report_dict(
            report
        ):
            return
        self.cache.store(
            job.cache_key,
            {
                "report": report,
                "ok": event.get("ok"),
                "warnings": list(job.warnings),
            },
            meta={
                "program": report.get("program"),
                "verdict": report.get("verdict"),
                "warnings": len(report.get("warnings") or ()),
            },
        )

    # -- NDJSON over the unix socket ---------------------------------------
    async def _handle_ndjson(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def write(data: bytes) -> None:
            writer.write(data)
            await writer.drain()

        try:
            try:
                line = await reader.readline()
            except ConnectionError:
                return
            except ValueError:  # longer than the stream's limit
                line = None
            if line is not None and not line.strip():
                return
            if line is None or len(line) > MAX_SUBMISSION_BYTES:
                await write(encode_event(
                    self._invalid("submission too large")
                ))
                return
            try:
                raw = decode_line(line)
            except ProtocolError as exc:
                await write(encode_event(self._invalid(str(exc))))
                return
            job, rejection = await self._admit(raw)
            if rejection is not None:
                await write(encode_event(rejection))
                return
            await write(encode_event(
                accepted_event(
                    job.job_id, self.admission.depth, cached=job.cached
                )
            ))
            await self._stream_events(job, write)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # -- minimal HTTP/1.1 --------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await reader.readline()
            except (ValueError, ConnectionError):
                return
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()

            if method == "GET" and target == "/healthz":
                await self._http_json(writer, 200, "OK", self._healthz())
            elif method == "GET" and target == "/stats":
                await self._http_json(writer, 200, "OK", self._stats())
            elif method == "GET" and target == "/metrics":
                await self._http_text(
                    writer, 200, "OK",
                    render_openmetrics(self.metrics.samples()),
                    content_type=(
                        "application/openmetrics-text; "
                        "version=1.0.0; charset=utf-8"
                    ),
                )
            elif method == "POST" and target == "/submit":
                await self._http_submit(reader, writer, headers)
            else:
                await self._http_json(
                    writer, 404, "Not Found",
                    {"error": f"no route for {method} {target}"},
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _http_submit(self, reader, writer, headers) -> None:
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = 0
        if length <= 0 or length > MAX_SUBMISSION_BYTES:
            await self._http_json(
                writer, 400, "Bad Request",
                self._invalid("bad content-length"),
            )
            return
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:  # closed before Content-Length
            await self._http_json(
                writer, 400, "Bad Request", self._invalid("truncated body")
            )
            return
        try:
            raw = decode_line(body)
        except ProtocolError as exc:
            await self._http_json(
                writer, 400, "Bad Request", self._invalid(str(exc))
            )
            return
        job, rejection = await self._admit(raw)
        if rejection is not None:
            status, phrase = _REJECT_STATUS.get(
                str(rejection["reason"]), (400, "Bad Request")
            )
            await self._http_json(writer, status, phrase, rejection)
            return

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def write_chunk(data: bytes) -> None:
            writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
            await writer.drain()

        await write_chunk(encode_event(
            accepted_event(
                job.job_id, self.admission.depth, cached=job.cached
            )
        ))
        await self._stream_events(job, write_chunk)
        try:
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _http_json(
        self, writer, status: int, phrase: str, payload: Dict[str, object]
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        await self._http_body(
            writer, status, phrase, body, "application/json"
        )

    async def _http_text(
        self,
        writer,
        status: int,
        phrase: str,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        await self._http_body(
            writer, status, phrase, text.encode("utf-8"), content_type
        )

    async def _http_body(
        self, writer, status: int, phrase: str, body: bytes,
        content_type: str,
    ) -> None:
        try:
            writer.write(
                f"HTTP/1.1 {status} {phrase}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1") + body
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    # -- introspection -----------------------------------------------------
    def _preregister_metrics(self) -> None:
        """Touch the serve/harrier/provenance metric families once so a
        ``/metrics`` scrape sees them (at zero) before any traffic."""
        self.metrics.counter("serve_admitted_total", tenant="default")
        self.metrics.counter(
            "serve_rejected_total",
            tenant="default", reason=adm.REASON_QUEUE_FULL,
        )
        self.metrics.counter("serve_jobs_completed_total", kind="report")
        self.metrics.counter("serve_worker_restarts_total")
        self.metrics.gauge("serve_queue_depth").set(0)
        self.metrics.counter("harrier_events_emitted_total")
        self.metrics.counter("harrier_warnings_total")
        self.metrics.counter("provenance_sources_total")
        self.metrics.counter("provenance_waypoints_total")
        self.metrics.counter("provenance_evidence_total")

    def _healthz(self) -> Dict[str, object]:
        live = self.supervisor.live_workers()
        return {
            "ok": live > 0 and not self._closed,
            "live_workers": live,
            "idle_workers": self.supervisor.idle_workers(),
            "queue_depth": self.admission.depth,
            "draining": self.admission.draining,
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
            "worker_generations": self.supervisor.generations(),
            "provenance_enabled": self.provenance_enabled,
            "cache": (
                {
                    "enabled": True,
                    "hits": self.cache.stats.hits,
                    "misses": self.cache.stats.misses,
                    "hit_rate": round(self.cache.hit_rate, 4),
                }
                if self.cache is not None
                else {"enabled": False}
            ),
        }

    def _stats(self) -> Dict[str, object]:
        return {
            "health": self._healthz(),
            "supervisor": self.supervisor.stats(),
            "cache": (
                self.cache.snapshot() if self.cache is not None else None
            ),
            "metrics": self.metrics.samples(),
        }


async def run_daemon(daemon: ServeDaemon) -> None:
    """Run ``daemon`` until SIGTERM/SIGINT, then drain and exit."""
    import signal

    await daemon.start()
    await daemon.wait_ready()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, ValueError):
            pass
    await stop.wait()
    await daemon.shutdown(drain=True)
