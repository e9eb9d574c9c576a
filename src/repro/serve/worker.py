"""Serve worker: one warm Session process draining the daemon's jobs.

Like a fleet worker, a serve worker owns one :class:`repro.api.Session`
for its whole life, so the translated-block store, tag-set interner and
assemble memo stay warm across unrelated submissions — the "warm pool"
that makes an always-on daemon faster than batch.  Unlike a fleet
worker, its input is open-ended: jobs arrive one at a time on its own
inbox, results (and *live warnings*, via
:class:`~repro.serve.streaming.TapAnalyzer`) stream back on its own
result pipe, and the worker announces readiness after every job so the
supervisor can dispatch.

Containment: any exception inside a run is answered as an ``error``
message with the traceback — a worker only dies on a genuine crash
(``os._exit``, segfault, kill), which the supervisor turns into a
retry or a synthesized error record.  Either way no submission is ever
left unanswered.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Dict, Optional, Tuple

from repro.api import Session
from repro.core.report import RunReport
from repro.expert import matchgen
from repro.isa import blockjit
from repro.secpert.policy import PolicyConfig
from repro.secpert.secpert import Secpert
from repro.serve.protocol import Submission
from repro.serve.streaming import TapAnalyzer, warning_to_wire


def execute_submission(
    session: Session,
    submission: Submission,
    on_warning: Optional[Callable[[int, object], None]] = None,
) -> Tuple[RunReport, Optional[bool], Optional[Dict[str, Any]]]:
    """Run one submission on a warm session; return (report, ok, engine).

    ``ok`` is the registry classification check for workload
    submissions, ``None`` for inline source (no expectation to check).
    ``on_warning(seq, warning)`` fires live, in order, as Secpert emits.
    ``engine`` is the analyzer engine's match-cost snapshot
    (:meth:`repro.expert.InferenceEngine.match_stats`) when the run owns
    its Secpert (streaming submissions), else ``None``.
    """
    tap = None
    if on_warning is not None:
        policy = submission.options.policy or PolicyConfig()
        tap = TapAnalyzer(Secpert(policy), on_warning)

    def engine_stats() -> Optional[Dict[str, Any]]:
        if tap is None:
            return None
        return tap.inner.engine.match_stats()

    if submission.workload is not None:
        from repro.fleet.refs import WorkloadRef

        table, name = submission.workload
        workload = WorkloadRef.from_registry(table, name).resolve()
        report = session.run_workload(
            workload, options=submission.options, analyzer=tap
        )
        return report, workload.classified_correctly(report), engine_stats()

    def setup(hth) -> None:
        from repro.kernel.network import ConversationPeer, SinkPeer

        for path, content in sorted(submission.files.items()):
            hth.fs.write_text(path, content)
        for addr, payload in sorted(submission.peers.items()):
            host, _, port = addr.partition(":")
            if payload:
                hth.network.add_peer(
                    host, int(port),
                    lambda host=host, payload=payload: ConversationPeer(
                        host, opening=payload.encode()
                    ),
                )
            else:
                hth.network.add_peer(
                    host, int(port), lambda host=host: SinkPeer(host)
                )

    report = session.run(
        submission.source,
        argv=(
            list(submission.argv) if submission.argv is not None
            else [submission.path]
        ),
        stdin=submission.stdin,
        setup=setup,
        options=submission.options,
        path=submission.path,
        analyzer=tap,
    )
    return report, None, engine_stats()


def serve_worker_main(worker_id: int, inbox, results) -> None:
    """Process entrypoint: announce readiness, run jobs until ``None``.

    Wire messages sent on ``results`` (all carry ``worker``; job-scoped
    ones echo ``job``/``attempt`` so the supervisor can drop stale
    messages after a crash-retry)::

        {"kind": "ready"}                       idle, ready for a job
        {"kind": "start", job, attempt}         picked a job up
        {"kind": "warning", job, attempt, seq, warning}
        {"kind": "result", job, attempt, report, ok, elapsed, engine, jit,
         library}
        {"kind": "error",  job, attempt, error, elapsed}
    """
    import time

    session = Session()
    results.send({"kind": "ready", "worker": worker_id})
    while True:
        job = inbox.get()
        if job is None:
            return
        job_id = job["id"]
        attempt = job["attempt"]
        started = time.perf_counter()
        results.send({
            "kind": "start", "worker": worker_id,
            "job": job_id, "attempt": attempt,
        })

        def on_warning(seq: int, warning) -> None:
            results.send({
                "kind": "warning",
                "worker": worker_id,
                "job": job_id,
                "attempt": attempt,
                "seq": seq,
                "warning": warning_to_wire(warning),
            })

        try:
            submission = Submission.from_wire(job["spec"])
            report, ok, engine = execute_submission(
                session, submission, on_warning=on_warning
            )
            results.send({
                "kind": "result",
                "worker": worker_id,
                "job": job_id,
                "attempt": attempt,
                "report": report.to_dict(),
                "ok": ok,
                "elapsed": time.perf_counter() - started,
                "engine": engine,
                # This worker's block-JIT code cache, rule-matcher code
                # cache and library plan tables (all outlive runs).
                "jit": blockjit.CODE_CACHE.stats(),
                "matcher": matchgen.MATCHER_CACHE.stats(),
                "library": session.engine.block_caches.library_stats(),
            })
        except Exception:
            results.send({
                "kind": "error",
                "worker": worker_id,
                "job": job_id,
                "attempt": attempt,
                "error": traceback.format_exc(),
                "elapsed": time.perf_counter() - started,
            })
        results.send({"kind": "ready", "worker": worker_id})
