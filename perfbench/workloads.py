"""The four workloads: set-up, one unit of work, checks, and teardown.

Every workload exposes the same small surface to :mod:`run`:

* ``setup()`` — cold start to ready (imports happen before, in the
  caller; this builds the warm state and makes one checked warm-up run);
* ``measure(seconds, pacer)`` — repeat the workload's unit of work
  until the time is up, with a reference loop on ``cpus`` CPUs between
  units (see :mod:`pace`), and return a :class:`Sample` of verdict
  latencies scaled to the reference host speed;
* ``fixed(n)`` — a fixed amount of the same work (the traced run
  compares it with and without tracing, and counts it);
* ``count()`` — the same work again with the program's metrics registry
  on, for the deterministic work counts (serve-mix replays the
  first-time submissions of its last ``fixed()`` in one batch
  ``Session``: daemon-side registries do not reach the client);
* ``guests()`` — :class:`repro.programs.base.Workload` rows representing
  the workload, for the monitor ablation;
* ``close()`` — stop every process the workload started.

Each unit of work is checked against what the generator knows the answer
must be; a failed check is counted, never dropped.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import generate
from pace import Pacer

HERE = Path(__file__).resolve().parent


@dataclass
class Verdict:
    """One delivered verdict as the benchmark saw it."""

    latency: float
    ok: bool
    #: serve-mix: answered from the daemon's verdict cache.
    cached: bool = False
    #: serve-mix: the daemon's own timing of the job.
    timing: Optional[Dict[str, float]] = None
    #: Harrier events and Secpert warnings of the run (0 for cache hits
    #: and failed runs), read off the report the program returned.
    events: int = 0
    warnings: int = 0


@dataclass
class Sample:
    """What one measurement produced.

    ``measure()`` scales ``jobs``, verdict latencies and ``work_s`` to the
    reference host speed (see :mod:`pace`); ``raw_jobs`` and ``wall`` are
    plain wall seconds.  ``fixed()`` leaves everything unscaled.
    """

    verdicts: List[Verdict] = field(default_factory=list)
    #: Seconds per unit of work (a run, a sweep round, a submission).
    jobs: List[float] = field(default_factory=list)
    raw_jobs: List[float] = field(default_factory=list)
    #: Seconds spent in the measured work, reference loops excluded.
    work_s: float = 0.0
    raw_work_s: float = 0.0
    #: The scale factor of every stretch of work, in order.
    factors: List[float] = field(default_factory=list)
    wall: float = 0.0
    failures: List[str] = field(default_factory=list)

    def add(self, verdict: Verdict, what: str) -> None:
        self.verdicts.append(verdict)
        if not verdict.ok:
            self.failures.append(what)

    def mark(self) -> tuple:
        return len(self.verdicts), len(self.jobs)

    def scale_since(self, mark: tuple, seconds: float, factor: float) -> None:
        """Scale what was added since ``mark``: ``seconds`` of work done
        at a host speed that ``factor`` converts to the reference speed."""
        verdicts, jobs = mark
        for verdict in self.verdicts[verdicts:]:
            verdict.latency *= factor
        self.raw_jobs.extend(self.jobs[jobs:])
        self.jobs[jobs:] = [job * factor for job in self.jobs[jobs:]]
        self.work_s += seconds * factor
        self.raw_work_s += seconds
        self.factors.append(factor)


def _setup_fn(guest: "generate.GuestInput", holder: Optional[dict] = None):
    """A machine set-up closure seeding ``guest``'s files and peers."""

    def setup(hth) -> None:
        from repro.kernel.network import SinkPeer

        for path, text in sorted(guest.files.items()):
            hth.fs.write_text(path, text)
        for addr, _ in sorted(guest.peers.items()):
            host, _, port = addr.partition(":")
            hth.network.add_peer(host, int(port), lambda h=host: SinkPeer(h))
        if holder is not None:
            holder["hth"] = hth

    return setup


def _as_workload(guest: "generate.GuestInput", name: str, verdict: str,
                 rules=()):
    from repro.core.report import Verdict as V
    from repro.programs.base import Workload

    return Workload(
        name=name,
        program_path=guest.path,
        source=guest.source,
        setup=_setup_fn(guest),
        argv=list(guest.argv),
        expected_verdict=V(verdict),
        expected_rules=tuple(rules),
    )


# -- long-guest and event-stream ------------------------------------------------

#: Loop counts of the set-up's warm-up run.  The warm-up runs the same
#: image as the measured guest (the count is an argument), so it fills
#: the Session's assembly memo and block cache just the same, but it does
#: not repeat a whole measured run inside set-up: 2 passes touch every
#: block of the transform guest, 260 iterations every block of the event
#: guest (one fork at pass 128, a send every 4th pass).
WARM_PASSES = 2
WARM_ITERATIONS = 260


class SingleGuest:
    """One fixed guest run repeatedly in one warm ``repro.api.Session``."""

    #: CPUs the measured work keeps busy (the reference runs on as many).
    cpus = 1

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        if name == "long-guest":
            self.guest = generate.long_guest(seed)
            self.warm = generate.long_guest(seed, WARM_PASSES)
        else:
            self.guest = generate.event_stream(seed)
            self.warm = generate.event_stream(seed, WARM_ITERATIONS)
        self.session = None
        #: (instructions, events) of the first measured run; every later
        #: run of the measured guest must repeat them.
        self.reference: Optional[tuple] = None

    def _run(self, guest: "generate.GuestInput", options=None):
        holder: dict = {}
        report = self.session.run(
            guest.source,
            argv=list(guest.argv),
            setup=_setup_fn(guest, holder),
            path=guest.path,
            options=options,
        )
        return report, holder["hth"]

    def _check(self, guest: "generate.GuestInput", report, hth) -> bool:
        """Benign, clean exit, the output the generator predicts; and for
        the measured guest, the same work as its first run."""
        if self.name == "long-guest":
            data = guest.files[generate.INPUT_PATH].encode()
            want = generate.transform_reference(data, int(guest.argv[3]))
            node = hth.fs.lookup(generate.OUTPUT_PATH)
        else:
            want = guest.argv[4].encode() * int(guest.argv[5])
            node = hth.fs.lookup(guest.argv[1])
        ok = (
            report.verdict.value == "benign" and not report.warnings
            and report.exit_code == 0
            and report.result.reason == "all-exited"
            and node is not None and node.data == want
        )
        if guest is self.guest:
            shape = (report.result.instructions, len(report.events))
            if self.reference is None:
                self.reference = shape
            ok = ok and shape == self.reference
        return ok

    def setup(self) -> None:
        from repro.api import Session

        self.session = Session()
        report, hth = self._run(self.warm)
        if not self._check(self.warm, report, hth):
            raise RuntimeError(f"{self.name}: warm-up run failed its checks")

    def _one(self, sample: Sample) -> None:
        started = time.perf_counter()
        report, hth = self._run(self.guest)
        elapsed = time.perf_counter() - started
        sample.jobs.append(elapsed)
        sample.add(
            Verdict(elapsed, self._check(self.guest, report, hth),
                    events=len(report.events),
                    warnings=len(report.warnings)),
            f"{self.name} run {len(sample.jobs)}",
        )

    def measure(self, seconds: float, pacer: Pacer) -> Sample:
        sample = Sample()
        started = time.perf_counter()
        pacer.begin()
        while time.perf_counter() - started < seconds:
            mark = sample.mark()
            self._one(sample)
            sample.scale_since(mark, sample.jobs[-1], pacer.factor())
        sample.wall = time.perf_counter() - started
        return sample

    def fixed(self, n: int) -> Sample:
        sample = Sample()
        started = time.perf_counter()
        for _ in range(n):
            self._one(sample)
        sample.wall = time.perf_counter() - started
        return sample

    def count(self) -> Dict[str, float]:
        from repro.core.options import RunOptions

        report, _ = self._run(self.guest, RunOptions(metrics=True))
        return registry_counts(report.telemetry)

    def guests(self):
        return [_as_workload(self.guest, self.name, "benign")]

    def close(self) -> None:
        self.session = None


def registry_counts(snapshot) -> Dict[str, float]:
    """Deterministic work counts from the program's metrics registry."""
    hits = snapshot.metric_total("cache_hits_total")
    bc_hits = snapshot.metric_total("blockcache_hits_total")
    lookups = bc_hits + snapshot.metric_total("blockcache_misses_total")
    return {
        "harrier.blockcache_hit_ratio": bc_hits / lookups if lookups else 0.0,
        "work.blockcache_lookups": lookups,
        "work.cpu_instructions": snapshot.metric_total(
            "cpu_instructions_total"),
        "work.kernel_syscalls": snapshot.metric_total(
            "kernel_syscalls_total"),
        "work.harrier_events": snapshot.metric_total(
            "harrier_events_emitted_total"),
        "work.secpert_facts": snapshot.metric_total(
            "secpert_facts_asserted_total"),
        "work.blocks_translated": snapshot.metric_total(
            "blockcache_misses_total"),
        "work.cache_hits": hits,
        "work.cache_misses": snapshot.metric_total("cache_misses_total"),
    }


# -- variant-sweep --------------------------------------------------------------

SWEEP_WORKERS = 2


class VariantSweep:
    """``repro.advers.run_sweep`` rounds: every Trojan parent x all 7
    mutation classes, a fresh variant seed per round, no verdict cache."""

    name = "variant-sweep"
    cpus = SWEEP_WORKERS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._seeds = iter(generate.sweep_seeds(seed, 10_000))

    def _round(self, sample: Sample, vseed: int, options=None):
        from repro.advers import SEVERITY as ORDER, run_sweep
        from repro.core.options import RunOptions

        if options is None:
            options = RunOptions(wall_timeout=60.0)
        started = time.perf_counter()
        result = run_sweep(
            seed=vseed, options=options, workers=SWEEP_WORKERS,
        )
        elapsed = time.perf_counter() - started
        sample.jobs.append(elapsed)
        for planned, record in zip(result.plan, result.fleet.runs):
            report = record.report or {}
            ok = not record.failed and (
                ORDER[str(report["verdict"])]
                >= ORDER[planned.expected_verdict]
            )
            sample.add(
                Verdict(record.elapsed, ok,
                        events=int(report.get("event_count", 0)),
                        warnings=len(report.get("warnings") or ())),
                planned.ref.name,
            )
        return result

    def setup(self) -> None:
        from repro.advers import default_parents, run_sweep

        # Warm-up: a two-parent sweep forks the fleet once and touches
        # every mutation class; its verdicts are checked like the rest.
        result = run_sweep(
            parents=default_parents()[:2], seed=0, workers=SWEEP_WORKERS,
        )
        if result.errors or result.evasions:
            raise RuntimeError("variant-sweep: warm-up sweep failed")

    def measure(self, seconds: float, pacer: Pacer) -> Sample:
        sample = Sample()
        started = time.perf_counter()
        pacer.begin()
        while time.perf_counter() - started < seconds:
            mark = sample.mark()
            self._round(sample, next(self._seeds))
            sample.scale_since(mark, sample.jobs[-1], pacer.factor())
        sample.wall = time.perf_counter() - started
        return sample

    def fixed(self, n: int) -> Sample:
        sample = Sample()
        seeds = generate.sweep_seeds(self.seed, n)
        started = time.perf_counter()
        self.last_fleets = [
            self._round(sample, vseed).fleet for vseed in seeds
        ]
        sample.wall = time.perf_counter() - started
        return sample

    def count(self) -> Dict[str, float]:
        from repro.core.options import RunOptions

        result = self._round(
            Sample(), generate.sweep_seeds(self.seed, 1)[0],
            options=RunOptions(wall_timeout=60.0, metrics=True),
        )
        return registry_counts(result.fleet.telemetry)

    def guests(self):
        """One variant per mutation class of the first Trojan parent."""
        from repro.advers import default_parents
        from repro.programs.mutate import MUTATION_CLASSES, variants

        vseed = generate.sweep_seeds(self.seed, 1)[0]
        parent = default_parents()[0]
        return [
            variants(parent, klass, vseed)[0] for klass in MUTATION_CLASSES
        ]

    def close(self) -> None:
        pass


# -- serve-mix ---------------------------------------------------------------------

CLIENTS = 2
#: Seconds of load between two reference loops.
SEGMENT_S = 1.0
#: Served reports re-run in a batch Session and compared bit for bit.
VERIFY_SAMPLES = 12
DAEMON_READY_TIMEOUT = 60.0


class Daemon:
    """One ``repro serve`` process started by :mod:`serve_daemon`."""

    def __init__(self, workdir: Path, trace_dir: Optional[Path] = None):
        # Relative to the shared working directory: a unix socket path
        # may not exceed about 100 bytes, wherever the checkout lives.
        self.socket = os.path.relpath(
            workdir / f"serve-{time.monotonic_ns()}.sock"
        )
        cmd = [sys.executable, str(HERE / "serve_daemon.py"),
               "--socket", self.socket]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        # The CLI prints its banner only once a worker reported ready.
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], DAEMON_READY_TIMEOUT
        )
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("repro serve:"):
            self.stop()
            raise RuntimeError(f"serve daemon did not start ({line!r})")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        try:
            os.unlink(self.socket)
        except FileNotFoundError:
            pass


def _served_ok(item: "generate.StreamItem", terminal: Dict) -> bool:
    if terminal.get("kind") != "report":
        return False
    report = terminal["report"]
    fired = {w["rule"] for w in report.get("warnings") or ()}
    return (
        report.get("verdict") == item.expected_verdict
        and report.get("exit_code") == 0
        and all(rule in fired for rule in item.expected_rules)
    )


class ServeMix:
    """Two closed-loop clients against a ``repro serve`` daemon: a fixed
    share of the submissions repeat an earlier one (verdict-cache hits),
    the rest are first-time generated guests (misses)."""

    name = "serve-mix"
    #: The daemon's default two workers.
    cpus = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.stream = generate.ServeStream(seed)
        self.next_index = 0
        self.daemon: Optional[Daemon] = None
        #: (stream item, terminal event) of every answered submission.
        self.answered: List[tuple] = []
        #: The stream items of the last :meth:`fixed` call.
        self.fixed_items: List["generate.StreamItem"] = []
        #: Called with the number of submissions answered so far.
        self.on_answer: Optional[Callable[[int], None]] = None

    def start_daemon(self, trace_dir: Optional[Path] = None) -> None:
        if self.daemon is not None:
            self.daemon.stop()
        self.daemon = Daemon(self.workdir, trace_dir)
        warm = generate.ServeStream(-1 - self.seed)
        sample = Sample()
        asyncio.run(self._clients(
            sample, deadline=None, items=[warm[i] for i in range(4)],
            record=False,
        ))
        if sample.failures:
            raise RuntimeError(f"serve-mix warm-up failed: {sample.failures}")

    def setup(self) -> None:
        self.start_daemon()

    async def _clients(self, sample: Sample, deadline: Optional[float],
                       items: Optional[list] = None,
                       record: bool = True) -> None:
        """Two closed-loop clients over ``items``, or over the stream
        until ``deadline``; ``record`` keeps answers for :meth:`verify`."""
        from repro.serve.client import submit_async
        from repro.serve.protocol import Submission

        queue = list(reversed(items)) if items is not None else None

        def take():
            if queue is not None:
                return queue.pop() if queue else None
            if time.perf_counter() >= deadline:
                return None
            item = self.stream[self.next_index]
            self.next_index += 1
            return item

        async def client() -> None:
            while True:
                item = take()
                if item is None:
                    return
                submission = Submission.from_wire(item.wire)
                started = time.perf_counter()
                try:
                    events = await submit_async(
                        self.daemon.socket, submission
                    )
                    terminal = events[-1]
                except (OSError, RuntimeError) as exc:
                    terminal = {"kind": "transport-error",
                                "error": str(exc)}
                elapsed = time.perf_counter() - started
                sample.jobs.append(elapsed)
                if record:
                    self.answered.append((item, terminal))
                cached = bool(terminal.get("cached"))
                report = (
                    terminal["report"]
                    if terminal.get("kind") == "report" and not cached
                    else {}
                )
                sample.add(
                    Verdict(
                        elapsed, _served_ok(item, terminal),
                        cached=cached,
                        timing=terminal.get("timing"),
                        events=int(report.get("event_count", 0)),
                        warnings=len(report.get("warnings") or ()),
                    ),
                    f"serve item {item.index} ({item.kind})",
                )
                if self.on_answer is not None:
                    self.on_answer(len(sample.verdicts))

        await asyncio.gather(*(client() for _ in range(CLIENTS)))

    def measure(self, seconds: float, pacer: Pacer) -> Sample:
        """Closed-loop load in stretches of SEGMENT_S, each scaled by the
        reference loops around it (the clients pause while they run)."""
        sample = Sample()
        started = time.perf_counter()
        deadline = started + seconds
        pacer.begin()
        while time.perf_counter() < deadline:
            mark = sample.mark()
            segment = time.perf_counter()
            asyncio.run(self._clients(
                sample, deadline=min(deadline, segment + SEGMENT_S)
            ))
            sample.scale_since(
                mark, time.perf_counter() - segment, pacer.factor()
            )
        sample.wall = time.perf_counter() - started
        return sample

    def fixed(self, n: int) -> Sample:
        sample = Sample()
        self.fixed_items = [self.stream[i] for i in range(n)]
        started = time.perf_counter()
        asyncio.run(self._clients(
            sample, deadline=None, items=self.fixed_items
        ))
        sample.wall = time.perf_counter() - started
        return sample

    def count(self) -> Dict[str, float]:
        """Registry counts of the last :meth:`fixed` call's first-time
        submissions, replayed in order in one batch ``Session`` with the
        registry on.  A daemon worker runs a miss on a plain warm
        ``Session`` too (its report equals the batch one, as
        :meth:`verify` checks); a hit executes nothing.  The daemon's two
        workers translate shared blocks once each where this replay
        translates them once, so ``work.blocks_translated`` is the
        single-session figure."""
        from repro.api import Session
        from repro.serve.protocol import Submission
        from repro.serve.worker import execute_submission
        from repro.telemetry import TelemetrySnapshot

        session = Session()
        snapshots = []
        for item in self.fixed_items:
            if item.first != item.index:
                continue
            submission = Submission.from_wire(
                {**item.wire, "options": {"metrics": True}}
            )
            report, _, _ = execute_submission(session, submission)
            snapshots.append(report.telemetry)
        return registry_counts(TelemetrySnapshot.merged(snapshots))

    def verify(self) -> List[str]:
        """Served reports must equal a batch Session run bit for bit."""
        from repro.api import Session
        from repro.serve.protocol import Submission
        from repro.serve.worker import execute_submission

        reports = [
            (item, terminal) for item, terminal in self.answered
            if terminal.get("kind") == "report"
        ]
        if not reports:
            return []
        step = max(1, len(reports) // VERIFY_SAMPLES)
        session = Session()
        failures = []
        for item, terminal in reports[::step][:VERIFY_SAMPLES]:
            batch, _, _ = execute_submission(
                session, Submission.from_wire(item.wire)
            )
            batch_dict = json.loads(json.dumps(batch.to_dict(), default=str))
            if batch_dict != terminal["report"]:
                failures.append(f"serve item {item.index}: served report "
                                "differs from the batch run")
        return failures

    def guests(self):
        """Four first-time submissions of each kind, as batch rows."""
        rows = []
        for item in self.stream.items[:64]:
            if item.first != item.index:
                continue
            kind_rows = [r for r in rows if r.name.startswith(item.kind)]
            if len(kind_rows) >= 4:
                continue
            wire = item.wire
            guest = generate.GuestInput(
                path=wire["path"], source=wire["source"],
                argv=tuple(wire["argv"]), files=wire.get("files", {}),
                peers=wire.get("peers", {}),
            )
            rows.append(_as_workload(
                guest, f"{item.kind}-{item.index}", item.expected_verdict,
                item.expected_rules,
            ))
        return rows

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


def make(name: str, seed: int, workdir: Path):
    if name in ("long-guest", "event-stream"):
        return SingleGuest(name, seed)
    if name == "variant-sweep":
        return VariantSweep(seed)
    if name == "serve-mix":
        return ServeMix(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("long-guest", "event-stream", "variant-sweep", "serve-mix")


def scratch_dir() -> Path:
    """Where runs put sockets and span files: inside the checkout."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=out))
