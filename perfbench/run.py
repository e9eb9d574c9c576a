"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing but the
program running; ``--trace 1`` is the attribution run that wraps every
layer's public entry points (see :mod:`tracer`) and reports per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run checks the program's answers; a failed check makes
``correct`` false and the exit status 1.  See README.md for the
workloads, the metrics, and how to read the span files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import workloads  # noqa: E402
from pace import Pacer  # noqa: E402

#: Cold starts timed per run; setup_s is their median.  A start is short
#: and the CPU's speed wanders from second to second, so the median
#: needs several.
SETUP_PROBES = 9
#: serve-mix samples peak memory up to this many answered submissions.
RSS_SUBMISSIONS = 1000
#: Units of work the traced run repeats, untraced then traced.
FIXED_WORK = {
    "long-guest": 3,
    "event-stream": 3,
    "variant-sweep": 2,
    "serve-mix": 400,
}
ABLATION_REPS = 5
#: The percentile latency_tail_ms reports, fixed per workload so that a
#: faster program fitting more samples into a run does not move to a
#: higher one.  A 25 s run holds about 3000 verdicts on variant-sweep and
#: serve-mix: p95 has some 150 beyond it and spread 5-8% (IQR / median)
#: over five seeds, p99 with some 30 beyond spread 11-13%.  The
#: single-guest workloads hold 15 to 35 runs, so only p50 has 10 beyond.
TAIL_PERCENTILE = {
    "long-guest": 50,
    "event-stream": 50,
    "variant-sweep": 95,
    "serve-mix": 95,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# -- statistics ------------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values: List[float]) -> float:
    """The highest of p99/p95/p90/p75/p50 with at least 10 samples beyond."""
    for q in (99, 95, 90, 75, 50):
        if len(values) * (100 - q) / 100.0 >= 10:
            return percentile(values, q)
    return percentile(values, 50)


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


# -- memory ------------------------------------------------------------------------

def _tree_rss_kb(root: int, exclude: Set[int]) -> int:
    """Resident KB of ``root`` and every live descendant outside
    ``exclude``."""
    children: Dict[int, List[int]] = {}
    rss: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/statm") as fh:
                pages = int(fh.read().split()[1])
        except (OSError, IndexError, ValueError):
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
        rss[int(entry)] = pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        if pid in exclude:
            continue
        total += rss.get(pid, 0)
        todo.extend(children.get(pid, ()))
    return total


class PeakRss:
    """Samples the benchmark's process tree (daemon and workers too),
    apart from the ``exclude`` pids (the reference-loop helpers)."""

    def __init__(self, exclude: Set[int], interval: float = 0.2) -> None:
        self.exclude = exclude
        self.interval = interval
        self.peak_kb = 0
        self._frozen = False
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _note(self, kb: int) -> None:
        with self._lock:
            if not self._frozen:
                self.peak_kb = max(self.peak_kb, kb)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._note(_tree_rss_kb(os.getpid(), self.exclude))
            self._stop.wait(self.interval)

    def freeze(self) -> None:
        """Take a last sample now; later samples no longer count."""
        self._note(_tree_rss_kb(os.getpid(), self.exclude))
        with self._lock:
            self._frozen = True
        self._stop.set()

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def mb(self) -> float:
        if self._frozen:
            return self.peak_kb / 1024.0
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kb, own) / 1024.0


# -- host metadata ----------------------------------------------------------------

def host_info(src: Path) -> Dict[str, object]:
    """Host and program identity.  ``commit`` is None outside a git
    checkout; ``source_sha256`` identifies the measured sources anyway."""
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# -- set-up ------------------------------------------------------------------------

def probe_setup(name: str, seed: int) -> int:
    """Child side of a set-up probe: imports, set-up, warm-up, "ready"."""
    workdir = workloads.scratch_dir()
    workload = workloads.make(name, seed, workdir)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def time_setups(name: str, seed: int, workload, pacer: Pacer):
    """Median cold-start-to-ready seconds over SETUP_PROBES starts, and
    each start's unscaled seconds and scale factor.

    In-process workloads start a fresh interpreter per probe (imports
    included).  serve-mix times the daemon launch plus its warm-up; the
    last daemon started stays up for the measurement.  Each start is
    scaled to the reference host speed by the reference loops around it
    (see :mod:`pace`).
    """
    raw, factors = [], []
    pacer.begin()
    for _ in range(SETUP_PROBES):
        if name == "serve-mix":
            workload.close()  # the previous daemon stops outside the timing
            started = time.perf_counter()
            workload.start_daemon()
            raw.append(time.perf_counter() - started)
            factors.append(pacer.factor())
            continue
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--probe-setup"],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        raw.append(time.perf_counter() - started)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"{name}: set-up probe failed")
        factors.append(pacer.factor())
    if name != "serve-mix":
        workload.setup()
    scaled = [t * f for t, f in zip(raw, factors)]
    return statistics.median(scaled), {
        "raw_setup_s": raw, "setup_factors": factors,
    }


# -- the untraced run ---------------------------------------------------------------

def end_to_end(name: str, seed: int, seconds: float, workdir: Path):
    workload = workloads.make(name, seed, workdir)
    try:
        with Pacer(workload.cpus) as pacer:
            setup_s, setup_extra = time_setups(name, seed, workload, pacer)
            # Sampled after the set-up probes so their interpreters, which
            # are not part of the workload, do not count.
            with PeakRss(pacer.pids) as rss:
                if name == "serve-mix":
                    # Serve workers grow with every distinct submission
                    # and the run is time-bound: over the whole run a
                    # faster daemon would show more memory for the extra
                    # work it got through, so the peak covers a fixed
                    # count instead.
                    workload.on_answer = (
                        lambda k: rss.freeze()
                        if k == RSS_SUBMISSIONS else None
                    )
                sample = workload.measure(seconds, pacer)
        peak_mb = rss.mb
        if name == "serve-mix":
            sample.failures += workload.verify()
        latencies = [v.latency for v in sample.verdicts]
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(sample.jobs),
            "verdicts_per_s": len(sample.verdicts) / sample.work_s,
            "latency_p50_ms": percentile(latencies, 50) * 1000.0,
            "latency_tail_ms": percentile(
                latencies, TAIL_PERCENTILE[name]) * 1000.0,
            "peak_rss_mb": peak_mb,
        }
        extra = {
            "samples": len(latencies),
            "latency_percentiles_ms": {
                q: percentile(latencies, q) * 1000.0
                for q in (50, 75, 90, 95, 99)
            },
            "jobs_s": sample.jobs,
            "raw_jobs_s": sample.raw_jobs,
            "raw_run_s": statistics.median(sample.raw_jobs),
            "raw_verdicts_per_s": len(sample.verdicts) / sample.raw_work_s,
            "speed_factors": sample.factors,
            **setup_extra,
        }
        if name == "serve-mix":
            extra.update(serve_split(sample))
            extra["rss_submissions"] = min(len(latencies), RSS_SUBMISSIONS)
        return metrics, sample, extra
    finally:
        workload.close()


def serve_split(sample) -> Dict[str, float]:
    """Hit and miss latencies of a serve-mix sample."""
    hits = [v.latency * 1000 for v in sample.verdicts if v.cached]
    misses = [v.latency * 1000 for v in sample.verdicts if not v.cached]
    return {
        "serve.hits": len(hits),
        "serve.misses": len(misses),
        "serve.hit_p50_ms": percentile(hits, 50),
        "serve.miss_p50_ms": percentile(misses, 50),
        "serve.miss_p90_ms": tail_percentile(misses),
    }


# -- the traced run -----------------------------------------------------------------

def ablation(rows) -> Dict[str, object]:
    """The section 9 ablation: the rows under each monitor configuration."""
    from repro.core.engine import EngineCache
    from repro.core.hth import HTH
    from repro.harrier.config import HarrierConfig

    rows = [r for r in rows if not r.extra_libraries]
    engine = EngineCache()
    configs = {
        "native": None,
        "no-dataflow": HarrierConfig(track_dataflow=False),
        "no-bbfreq": HarrierConfig(track_bb_frequency=False),
        "full": HarrierConfig(),
    }

    def run_rows(config) -> float:
        started = time.perf_counter()
        for row in rows:
            if config is None:
                hth = HTH(monitored=False, engine=engine)
                if row.setup is not None:
                    row.setup(hth)
                hth.run(row.image(engine=engine),
                        argv=row.argv or [row.program_path], env=row.env,
                        stdin=row.stdin, max_ticks=row.max_ticks)
            else:
                row.run(harrier_config=config, engine=engine)
        return time.perf_counter() - started

    times: Dict[str, List[float]] = {name: [] for name in configs}
    for name, config in configs.items():
        run_rows(config)  # warm the translations for every config
    order = list(configs)
    for rep in range(ABLATION_REPS):
        for name in order[rep % 4:] + order[:rep % 4]:
            times[name].append(run_rows(configs[name]))
    stats = {name: quartiles(ts) for name, ts in times.items()}
    pairs = [("native", "no-dataflow"), ("native", "no-bbfreq"),
             ("no-dataflow", "full"), ("no-bbfreq", "full")]
    inverted = [(a, b) for a, b in pairs
                if stats[a]["median"] > stats[b]["median"]]
    if not inverted:
        order_verdict = "monotone"
    elif all(stats[b]["q3"] >= stats[a]["q1"] for a, b in inverted):
        order_verdict = "unresolved"  # inversions inside the spread
    else:
        order_verdict = "inverted"
    return {"reps": ABLATION_REPS, "rows": len(rows), "seconds": stats,
            "times": times, "order": order_verdict,
            "inverted_pairs": inverted}


def traced(name: str, seed: int, workdir: Path):
    from tracer import Tracer, layer_self_times, load_dumps, merge_totals

    trace_dir = workdir / "spans"
    trace_dir.mkdir()
    workload = workloads.make(name, seed, workdir)
    n = FIXED_WORK[name]
    try:
        workload.setup()
        plain = workload.fixed(n)
        if name == "serve-mix":
            workload.start_daemon(trace_dir)
        tracer = Tracer(trace_dir).install()
        started = time.perf_counter()
        sample = workload.fixed(n)
        wall = time.perf_counter() - started
        main = tracer.snapshot()
        tracer.uninstall()
        fleets = getattr(workload, "last_fleets", [])
        if name == "serve-mix":
            workload.close()  # the daemon and its workers write spans
            sample.failures += workload.verify()
        children = [d for d in load_dumps(trace_dir) if d["pid"] != main["pid"]]
        counts = workload.count()
        abl = ablation(workload.guests())
    finally:
        workload.close()

    if name == "serve-mix":
        # The daemon's verdict cache answered these; the batch replay
        # behind the other counts has no cache.
        hits = sum(1 for v in sample.verdicts if v.cached)
        counts["work.cache_hits"] = hits
        counts["work.cache_misses"] = len(sample.verdicts) - hits
    totals = merge_totals([main["totals"]] + [c["totals"] for c in children])
    main_layers = layer_self_times(main["totals"])
    attribution = {
        "main": {
            "pid": main["pid"],
            "wall_s": wall,
            "layers_self_s": main_layers,
            "unattributed_s": wall - sum(main_layers.values()),
        },
        "children": [
            {
                "pid": c["pid"],
                "wall_s": c["wall"],
                "layers_self_s": layer_self_times(c["totals"]),
                "unattributed_s": c["wall"] - sum(
                    layer_self_times(c["totals"]).values()),
            }
            for c in children
        ],
    }
    facts: Dict[str, float] = {}
    for part in [main] + children:
        for key, value in part["facts"].items():
            if key == "interned_tagsets":
                facts[key] = max(facts.get(key, 0), value)
            else:
                facts[key] = facts.get(key, 0) + value
    metrics = layer_metrics(totals, facts, sample, fleets, abl, counts)
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain.wall,
        "trace.overhead_s": wall - plain.wall,
        "trace.unattributed_s": attribution["main"]["unattributed_s"],
    })
    split = serve_split(plain)
    metrics.update({
        k: (v if name == "serve-mix" else 0.0)
        for k, v in split.items() if k.endswith("_ms")
    })
    report = {
        "workload": name,
        "seed": seed,
        "fixed_work": n,
        "attribution": attribution,
        "span_totals": {
            k: dict(zip(("layer", "calls", "total_s", "self_s"), v))
            for k, v in sorted(totals.items())
        },
        "ablation": abl,
        "work_counts": counts,
        "metrics": metrics,
        "spans": {"main": main["spans"],
                  "children": {c["pid"]: c["spans"] for c in children}},
    }
    # Both segments' answers were checked; both count.
    checked = workloads.Sample(
        verdicts=plain.verdicts + sample.verdicts,
        failures=plain.failures + sample.failures,
    )
    return metrics, checked, report


def _total(totals, name: str, column: int) -> float:
    row = totals.get(name)
    return row[column] if row is not None else 0


def layer_metrics(totals, facts, sample, fleets, abl, counts):
    calls = lambda n: _total(totals, n, 1)  # noqa: E731
    inclusive = lambda n: _total(totals, n, 2)  # noqa: E731
    self_s = lambda n: _total(totals, n, 3)  # noqa: E731
    fast = facts.get("fastpath_blocks", 0)
    slow = facts.get("slowpath_blocks", 0)
    med = abl["seconds"]
    native = med["native"]["median"]
    metrics = {
        "isa.assemble_s": inclusive("Assembler.assemble"),
        "isa.assemble_calls": calls("Assembler.assemble"),
        "isa.translate_s": inclusive("translate_block"),
        "isa.blocks_translated": calls("translate_block"),
        "programs.mutate_s": inclusive("mutate_workload"),
        "kernel.exec_self_s": self_s("Kernel.run"),
        "kernel.load_s": inclusive("Loader.load"),
        "kernel.syscall_s": inclusive("SyscallTable.dispatch"),
        "kernel.syscalls": calls("SyscallTable.dispatch"),
        "core.machine_s": self_s("HTH.__init__"),
        "core.report_s": inclusive("RunReport.to_dict"),
        "harrier.block_s": self_s("Harrier.on_block"),
        "harrier.blocks": calls("Harrier.on_block"),
        "harrier.syscall_event_s": (
            self_s("Harrier.on_syscall_pre")
            + self_s("Harrier.on_syscall_post")),
        "harrier.events": sum(v.events for v in sample.verdicts),
        "harrier.fastpath_ratio": fast / (fast + slow) if fast + slow else 0.0,
        "harrier.overhead_x": med["full"]["median"] / native,
        "harrier.overhead_no_dataflow_x": (
            med["no-dataflow"]["median"] / native),
        "harrier.overhead_no_bbfreq_x": med["no-bbfreq"]["median"] / native,
        "harrier.ablation_monotone": 1 if abl["order"] == "monotone" else 0,
        "provenance.s": sum(
            row[3] for row in totals.values() if row[0] == "provenance"),
        "secpert.build_s": inclusive("Secpert.__init__"),
        "secpert.analyze_s": self_s("Secpert.analyze"),
        "secpert.analyze_calls": calls("Secpert.analyze"),
        "secpert.warnings": sum(v.warnings for v in sample.verdicts),
        "taint.interned_tagsets": facts.get("interned_tagsets", 0),
        "cache.key_s": sum(
            inclusive(n)
            for n in ("run_key", "workload_key", "submission_key")),
        "cache.lookup_s": inclusive("VerdictCache.lookup"),
        "cache.store_s": (
            self_s("VerdictCache.store") + self_s("VerdictCache.store_report")),
        "cache.hit_ratio": (
            sum(1 for v in sample.verdicts if v.cached)
            / len(sample.verdicts) if sample.verdicts else 0.0),
    }
    exec_s = sum(r.elapsed for f in fleets for r in f.runs)
    overhead = busy_ratio = 0.0
    if fleets:
        wall = sum(f.wall_seconds for f in fleets)
        for fleet in fleets:
            busy: Dict[int, float] = {}
            for record in fleet.runs:
                busy[record.worker] = busy.get(record.worker, 0.0) + (
                    record.elapsed)
            overhead += fleet.wall_seconds - max(busy.values())
        busy_ratio = exec_s / (workloads.SWEEP_WORKERS * wall)
    metrics.update({
        "fleet.exec_s": exec_s,
        "fleet.overhead_s": overhead,
        "fleet.worker_busy_ratio": busy_ratio,
    })
    timed = [v for v in sample.verdicts if v.timing is not None]
    misses = [v.timing for v in timed if not v.cached]
    metrics.update({
        "serve.queue_ms": percentile(
            [t["queue_wait"] * 1000 for t in misses], 50),
        "serve.exec_ms": percentile([t["exec"] * 1000 for t in misses], 50),
        "serve.front_ms": percentile(
            [(v.latency - v.timing["total"]) * 1000 for v in timed], 50),
    })
    metrics.update(counts)
    return metrics


# -- main ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)

    workdir = workloads.scratch_dir()
    try:
        if args.trace:
            metrics, sample, report = traced(
                args.workload, args.seed, workdir)
            units = {}
        else:
            metrics, sample, extra = end_to_end(
                args.workload, args.seed, args.seconds, workdir)
            units = END_TO_END_UNITS
            report = {"workload": args.workload, "seed": args.seed,
                      "metrics": metrics, "extra": extra}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["host"] = host_info(src)
    report["failures"] = sample.failures[:50]
    out = HERE / "out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(report, indent=1, default=str))
    host = report["host"]
    print(f"perfbench {args.workload} seed {args.seed}: "
          f"cpus={host['cpu_count']} python={host['python']} "
          f"commit={host['commit']} sources={host['source_sha256'][:12]} "
          f"report={out.relative_to(HERE.parent)}")
    for failure in sample.failures[:10]:
        print(f"FAILED: {failure}")
    failed = len(sample.failures)
    result = {
        "correct": failed == 0,
        "attempted": len(sample.verdicts),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, _unit(name))}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name == "provenance.s":
        return "s"
    if name.endswith("_x"):
        return "x"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
