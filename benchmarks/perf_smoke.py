"""Perf smoke check: the block cache must not be slower than the
reference interpreter, and the zero-taint fast path must actually pay off.

The reference sides — the per-instruction interpreter, forced template
replay and the naive rule matcher — are the ``tests/oracles``
implementations, so run from the repository root.

Runs the Section 9 workload under the full monitor and fails (exit 1)
when either property breaks:

* the cached path is slower than the reference per-instruction
  interpreter beyond a small noise margin;
* the block JIT (hot blocks fused into one generated function) is
  slower than closure-only execution (``tests/oracles`` ``closure_only``)
  beyond the same noise margin;
* the full monitor inlined into fused blocks is slower than the same
  blocks returning records to ``Harrier.on_block`` (``tests/oracles``
  ``record_path``), or an ablation (no-bbfreq, no-dataflow) is slower
  than the full monitor — both beyond the same noise margin;
* loop traces (a hot cycle of fused blocks run as one generated
  function) are slower than the same run with no trace
  (``tests/oracles`` ``no_traces``) beyond the same noise margin, or
  the two disagree on retired instructions or warnings;
* a lone process's hot loop, run in slices of ``SLICE_QUANTA`` quanta,
  is slower than one quantum per scheduler pass (``tests/oracles``
  ``one_quantum_per_pass``) beyond the same noise margin, or the two
  disagree on retired instructions, virtual time or warnings;
* the dataflow fast path is not at least :data:`FASTPATH_SPEEDUP`
  faster than forced per-transfer template replay — or the two disagree
  on retired instructions or emitted warnings (they must be
  observationally identical; the exhaustive bit-identical check over
  all workloads lives in tests/harrier/test_blockcache_differential.py);
* a 4-worker fleet over the full 62-workload sweep is not bit-identical
  to the serial sweep, or (on hosts with >= :data:`FLEET_WORKERS` CPUs)
  not at least :data:`FLEET_SPEEDUP` faster;
* the provenance evidence recorder costs more than
  :data:`PROVENANCE_OVERHEAD` over a provenance-off run, or turning it
  off changes retired instructions or warnings (modulo the ``evidence``
  payload itself);
* a warm verdict-cache hit on the Section 9 workload is not at least
  :data:`VERDICT_CACHE_SPEEDUP` times faster than executing it, is not
  bit-identical to the executed report, or the ``cache_*`` counter
  families are missing from the OpenMetrics exposition;
* the Rete engine is not at least :data:`RULE_ENGINE_SPEEDUP` faster
  than the naive full-rejoin matcher on the retained event stream, the
  two engines disagree on hits/fire-trace/agenda (the exhaustive
  differential lives in tests/secpert/test_rete_differential.py), or
  rete per-event match cost at 10k retained facts exceeds
  :data:`RULE_ENGINE_FLAT_RATIO` times its 100-fact cost (incremental
  matching must stay flat as working memory grows).

Designed for CI::

    PYTHONPATH=src python -m benchmarks.perf_smoke
    PYTHONPATH=src python -m benchmarks.perf_smoke verdict_cache  # one check

Prints the measured times and the speedups either way.  This is a smoke
test, not a benchmark — the real numbers live in
``benchmarks/results/BENCH_performance.json`` (bench_performance.py).
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

from benchmarks.bench_performance import run_workload
from repro.api import run as api_run
from repro.fleet import run_fleet, workload_refs
from tests.oracles import one_quantum_per_pass

#: Paired runs per engine (interleaved to cancel thermal/load drift).
REPS = 5

#: The cached path must be at least this fraction of interpreter speed.
#: 1.0 would assert "never slower at all", which is noise-prone on shared
#: CI runners; the real speedup target (>=1.25x) is asserted in the full
#: benchmark suite where reps are longer.
NOISE_MARGIN = 1.05

#: The dataflow fast path must beat per-transfer template replay by at
#: least this factor on the Section 9 workload (measured ~1.4x).
FASTPATH_SPEEDUP = 1.3

#: Fleet gate: workers used, required speedup over the serial sweep, and
#: how many times the 62-workload table is repeated so process spawn and
#: queue overhead amortize into the measurement.
FLEET_WORKERS = 4
FLEET_SPEEDUP = 2.0
FLEET_REPS = 3

#: The evidence recorder rides the existing event stream, so a
#: provenance-on run may cost at most this factor over provenance-off.
PROVENANCE_OVERHEAD = 1.5

#: A warm verdict-cache hit (p50 over many lookups) must beat fresh
#: execution of the Section 9 workload by at least this factor — a hit
#: is one digest + one memory-LRU probe, execution is millions of
#: monitored guest ticks.
VERDICT_CACHE_SPEEDUP = 50.0
#: Hit-latency sample count for the p50 (cheap: no execution).
CACHE_HIT_SAMPLES = 25

#: The Rete engine must beat the naive full-rejoin matcher by at least
#: this factor on the retained event stream (measured >100x at 120
#: events — the gap widens with stream length, so the gate is modest).
RULE_ENGINE_SPEEDUP = 3.0
#: Retained events for the rule-engine stream gate (naive is quadratic
#: in this, keep it small enough to finish in seconds).
RULE_ENGINE_STREAM = 120
#: Rete per-event probe cost at the largest WM size may be at most this
#: factor over the smallest — "flat within noise" across 100x growth
#: (measured ~1.4x; the naive engine measures >400x on the same curve).
RULE_ENGINE_FLAT_RATIO = 3.0
#: Interleaved reps for the stream timing (naive is the slow side).
RULE_ENGINE_REPS = 3


#: A lone process's taint-carrying hot loop with no syscall before its
#: exit: nothing else can run, so the kernel runs it in slices.
LONE_LOOP_SOURCE = """
main:
    mov ecx, 0
    mov esi, table
loop:
    mov ebx, ecx
    and ebx, 7
    add ebx, esi
    load edx, [ebx]
    add edx, ecx
    store [ebx], edx
    add ecx, 1
    cmp ecx, 20000
    jl loop
    mov eax, 0
    ret
.data
table: .space 8
"""


def interleaved(run_a, run_b) -> tuple:
    """Interleaved best-of-REPS wall time of two calls.

    Best-of (not mean-of) so one scheduler hiccup on a shared runner
    cannot fail the gate.
    """
    best_a = float("inf")
    best_b = float("inf")
    # warm-up: first run pays import + assemble + translation costs
    run_a()
    run_b()
    for _ in range(REPS):
        start = time.perf_counter()
        run_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        run_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def measure(name_a: str, name_b: str) -> tuple:
    """:func:`interleaved` for two ``bench_performance`` configurations."""
    return interleaved(lambda: run_workload(name_a),
                       lambda: run_workload(name_b))


def check_block_cache() -> int:
    cached, interp = measure("harrier-full", "harrier-full-interp")
    speedup = interp / cached if cached else float("inf")
    print(
        f"perf smoke: cached={cached * 1000:.2f} ms "
        f"interp={interp * 1000:.2f} ms "
        f"speedup={speedup:.2f}x"
    )
    if cached > interp * NOISE_MARGIN:
        print(
            "FAIL: block-cache execution is slower than the "
            f"per-instruction interpreter (margin {NOISE_MARGIN}x)",
            file=sys.stderr,
        )
        return 1
    print("ok: block-cache execution is not slower than interpretation")
    return 0


def check_block_jit() -> int:
    jit_report = run_workload("harrier-full")
    closure_report = run_workload("harrier-closures")
    if jit_report.result.instructions != closure_report.result.instructions:
        print(
            "FAIL: the block JIT retired "
            f"{jit_report.result.instructions} instructions, closure-only "
            f"execution {closure_report.result.instructions}",
            file=sys.stderr,
        )
        return 1
    jit, closures = measure("harrier-full", "harrier-closures")
    speedup = closures / jit if jit else float("inf")
    print(
        f"perf smoke: jit={jit * 1000:.2f} ms "
        f"closures={closures * 1000:.2f} ms "
        f"speedup={speedup:.2f}x"
    )
    if jit > closures * NOISE_MARGIN:
        print(
            "FAIL: block-JIT execution is slower than closure-only "
            f"execution (margin {NOISE_MARGIN}x)",
            file=sys.stderr,
        )
        return 1
    print("ok: block-JIT execution is not slower than closure-only "
          "execution")
    return 0


def check_inline_monitor() -> int:
    inlined = run_workload("harrier-full")
    records = run_workload("harrier-record-path")
    if (inlined.result.instructions != records.result.instructions
            or inlined.warnings != records.warnings):
        print(
            "FAIL: the inlined monitor and the record path disagree on "
            "retired instructions or warnings",
            file=sys.stderr,
        )
        return 1
    full, records = measure("harrier-full", "harrier-record-path")
    speedup = records / full if full else float("inf")
    print(
        f"perf smoke: inlined={full * 1000:.2f} ms "
        f"record-path={records * 1000:.2f} ms "
        f"speedup={speedup:.2f}x"
    )
    failed = 0
    if full > records * NOISE_MARGIN:
        print(
            "FAIL: the inlined monitor is slower than the record path "
            f"(margin {NOISE_MARGIN}x)",
            file=sys.stderr,
        )
        failed = 1
    # The ROADMAP rule: an ablation never beats the full monitor's cost.
    for ablation in ("harrier-no-bbfreq", "harrier-no-dataflow"):
        less, full = measure(ablation, "harrier-full")
        print(
            f"perf smoke: {ablation}={less * 1000:.2f} ms "
            f"harrier-full={full * 1000:.2f} ms"
        )
        if less > full * NOISE_MARGIN:
            print(
                f"FAIL: {ablation} is slower than the full monitor "
                f"(margin {NOISE_MARGIN}x)",
                file=sys.stderr,
            )
            failed = 1
    if not failed:
        print("ok: the inlined monitor is not slower than the record path, "
              "and no ablation is slower than the full monitor")
    return failed


def check_loop_traces() -> int:
    traced = run_workload("harrier-full")
    untraced = run_workload("harrier-no-traces")
    if (traced.result.instructions != untraced.result.instructions
            or traced.warnings != untraced.warnings):
        print(
            "FAIL: loop traces and untraced execution disagree on "
            "retired instructions or warnings",
            file=sys.stderr,
        )
        return 1
    traced, untraced = measure("harrier-full", "harrier-no-traces")
    speedup = untraced / traced if traced else float("inf")
    print(
        f"perf smoke: traced={traced * 1000:.2f} ms "
        f"no-traces={untraced * 1000:.2f} ms "
        f"speedup={speedup:.2f}x"
    )
    if traced > untraced * NOISE_MARGIN:
        print(
            "FAIL: loop traces are slower than untraced execution "
            f"(margin {NOISE_MARGIN}x)",
            file=sys.stderr,
        )
        return 1
    print("ok: loop traces are not slower than untraced execution")
    return 0


def _run_lone_loop():
    report = api_run(LONE_LOOP_SOURCE, path="/bin/lone")
    assert report.exit_code == 0
    return report


def _run_lone_loop_per_quantum():
    with one_quantum_per_pass():
        return _run_lone_loop()


def check_slices() -> int:
    sliced = _run_lone_loop()
    per_quantum = _run_lone_loop_per_quantum()
    if (sliced.result != per_quantum.result
            or sliced.warnings != per_quantum.warnings):
        print(
            "FAIL: slices and one quantum per pass disagree on retired "
            "instructions, virtual time or warnings",
            file=sys.stderr,
        )
        return 1
    sliced, per_quantum = interleaved(_run_lone_loop,
                                      _run_lone_loop_per_quantum)
    speedup = per_quantum / sliced if sliced else float("inf")
    print(
        f"perf smoke: slices={sliced * 1000:.2f} ms "
        f"per-quantum={per_quantum * 1000:.2f} ms "
        f"speedup={speedup:.2f}x"
    )
    if sliced > per_quantum * NOISE_MARGIN:
        print(
            "FAIL: a lone process's slices are slower than one quantum "
            f"per pass (margin {NOISE_MARGIN}x)",
            file=sys.stderr,
        )
        return 1
    print("ok: a lone process's slices are not slower than one quantum "
          "per pass")
    return 0


def check_fastpath() -> int:
    # Equivalence first: same retired instructions, same warnings.
    fast_report = run_workload("harrier-fastpath")
    slow_report = run_workload("harrier-fastpath-off")
    if fast_report.result.instructions != slow_report.result.instructions:
        print(
            "FAIL: fast path retired "
            f"{fast_report.result.instructions} instructions, slow path "
            f"{slow_report.result.instructions}",
            file=sys.stderr,
        )
        return 1
    fast_warnings = sorted(repr(w) for w in fast_report.warnings)
    slow_warnings = sorted(repr(w) for w in slow_report.warnings)
    if fast_warnings != slow_warnings:
        print(
            "FAIL: fast path and slow path emitted different warnings:\n"
            f"  fast: {fast_warnings}\n  slow: {slow_warnings}",
            file=sys.stderr,
        )
        return 1
    fast, slow = measure("harrier-fastpath", "harrier-fastpath-off")
    speedup = slow / fast if fast else float("inf")
    print(
        f"perf smoke: fastpath={fast * 1000:.2f} ms "
        f"slowpath={slow * 1000:.2f} ms "
        f"speedup={speedup:.2f}x"
    )
    if speedup < FASTPATH_SPEEDUP:
        print(
            "FAIL: dataflow fast path speedup "
            f"{speedup:.2f}x is below the {FASTPATH_SPEEDUP}x gate",
            file=sys.stderr,
        )
        return 1
    print(
        "ok: dataflow fast path beats template replay "
        f"(>= {FASTPATH_SPEEDUP}x) with identical observable behaviour"
    )
    return 0


def check_fleet() -> int:
    """Sharded == serial bit-for-bit; >= FLEET_SPEEDUP on real cores."""
    refs = workload_refs() * FLEET_REPS
    serial = run_fleet(refs, workers=1)
    fleet = run_fleet(refs, workers=FLEET_WORKERS)
    for report in (serial, fleet):
        if report.failures:
            print(
                "FAIL: fleet sweep had failing runs: "
                f"{[r.name for r in report.failures]}",
                file=sys.stderr,
            )
            return 1
    if json.dumps(serial.reports, sort_keys=True, default=str) != (
        json.dumps(fleet.reports, sort_keys=True, default=str)
    ):
        print(
            "FAIL: sharded fleet reports are not bit-identical to the "
            "serial sweep",
            file=sys.stderr,
        )
        return 1
    speedup = (
        serial.wall_seconds / fleet.wall_seconds
        if fleet.wall_seconds else float("inf")
    )
    print(
        f"perf smoke: fleet serial={serial.wall_seconds * 1000:.0f} ms "
        f"{FLEET_WORKERS} workers={fleet.wall_seconds * 1000:.0f} ms "
        f"speedup={speedup:.2f}x ({len(refs)} runs, bit-identical)"
    )
    cpus = os.cpu_count() or 1
    if cpus < FLEET_WORKERS:
        print(
            f"note: host has {cpus} CPU(s) < {FLEET_WORKERS} workers; "
            f"the {FLEET_SPEEDUP}x fleet speedup gate only applies on "
            "multi-core runners"
        )
        return 0
    if speedup < FLEET_SPEEDUP:
        print(
            f"FAIL: fleet speedup {speedup:.2f}x is below the "
            f"{FLEET_SPEEDUP}x gate on a {cpus}-CPU host",
            file=sys.stderr,
        )
        return 1
    print(f"ok: fleet sweep scales (>= {FLEET_SPEEDUP}x) and is "
          "bit-identical to serial")
    return 0


def check_provenance() -> int:
    """Evidence trails are free to skip and cheap to keep."""
    on_report = run_workload("harrier-full")
    off_report = run_workload("harrier-provenance-off")
    if on_report.result.instructions != off_report.result.instructions:
        print(
            "FAIL: provenance-on retired "
            f"{on_report.result.instructions} instructions, "
            f"provenance-off {off_report.result.instructions}",
            file=sys.stderr,
        )
        return 1
    # Warnings must match modulo the evidence payload itself: the
    # recorder may annotate, never alter, what Secpert concludes.
    def strip(w):
        return re.sub(r"evidence=.*\)$", "evidence=...)", repr(w))

    on_warnings = sorted(strip(w) for w in on_report.warnings)
    off_warnings = sorted(strip(w) for w in off_report.warnings)
    if on_warnings != off_warnings:
        print(
            "FAIL: provenance on/off emitted different warnings "
            "(modulo evidence):\n"
            f"  on:  {on_warnings}\n  off: {off_warnings}",
            file=sys.stderr,
        )
        return 1
    on, off = measure("harrier-full", "harrier-provenance-off")
    ratio = on / off if off else float("inf")
    print(
        f"perf smoke: provenance-on={on * 1000:.2f} ms "
        f"provenance-off={off * 1000:.2f} ms "
        f"overhead={ratio:.2f}x"
    )
    if off > on * NOISE_MARGIN:
        print(
            "FAIL: disabling provenance made the run slower "
            f"(margin {NOISE_MARGIN}x) — the off switch is not a no-op",
            file=sys.stderr,
        )
        return 1
    if ratio > PROVENANCE_OVERHEAD:
        print(
            f"FAIL: provenance recording costs {ratio:.2f}x, above the "
            f"{PROVENANCE_OVERHEAD}x gate",
            file=sys.stderr,
        )
        return 1
    print(
        "ok: provenance recording stays under "
        f"{PROVENANCE_OVERHEAD}x with identical detections"
    )
    return 0


def check_verdict_cache() -> int:
    """Warm hits are bit-identical, ~free, and visible in OpenMetrics."""
    from benchmarks.bench_performance import WORKLOAD_SOURCE
    from repro.api import Session, VerdictCache
    from repro.telemetry.metrics import MetricsRegistry, render_openmetrics

    registry = MetricsRegistry()
    cached = Session(cache=VerdictCache(metrics=registry))
    fresh_report = cached.run(WORKLOAD_SOURCE, path="/bin/perf")

    # Fresh-execution baseline on a warm *uncached* session, so the
    # comparison is hit-vs-execution, not hit-vs-cold-translation.
    plain = Session()
    plain.run(WORKLOAD_SOURCE, path="/bin/perf")  # warm-up
    best_exec = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        plain.run(WORKLOAD_SOURCE, path="/bin/perf")
        best_exec = min(best_exec, time.perf_counter() - start)

    samples = []
    hit = None
    for _ in range(CACHE_HIT_SAMPLES):
        start = time.perf_counter()
        hit = cached.run(WORKLOAD_SOURCE, path="/bin/perf")
        samples.append(time.perf_counter() - start)
    hit_p50 = sorted(samples)[len(samples) // 2]

    if json.dumps(hit.to_dict(), sort_keys=True, default=str) != (
        json.dumps(fresh_report.to_dict(), sort_keys=True, default=str)
    ):
        print(
            "FAIL: the cached reply is not bit-identical to execution",
            file=sys.stderr,
        )
        return 1

    speedup = best_exec / hit_p50 if hit_p50 else float("inf")
    print(
        f"perf smoke: exec={best_exec * 1000:.2f} ms "
        f"warm-hit p50={hit_p50 * 1000:.3f} ms "
        f"speedup={speedup:.0f}x "
        f"({cached.cache.stats.hits} hits, "
        f"{cached.cache.stats.misses} miss)"
    )

    exposition = render_openmetrics(registry.samples())
    cache_lines = [
        line for line in exposition.splitlines()
        if line.startswith("cache_") or "TYPE cache_" in line
    ]
    print("perf smoke: OpenMetrics cache families:")
    for line in cache_lines:
        print(f"  {line}")
    for needle in ("cache_hits_total", "cache_misses_total"):
        if not any(needle in line for line in cache_lines):
            print(
                f"FAIL: {needle} missing from the OpenMetrics exposition",
                file=sys.stderr,
            )
            return 1

    if speedup < VERDICT_CACHE_SPEEDUP:
        print(
            f"FAIL: warm verdict-cache hit speedup {speedup:.0f}x is "
            f"below the {VERDICT_CACHE_SPEEDUP:.0f}x gate",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: warm verdict-cache hits are >= "
        f"{VERDICT_CACHE_SPEEDUP:.0f}x faster than execution and "
        "bit-identical"
    )
    return 0


def check_rule_engine() -> int:
    from benchmarks.bench_rule_engine import (
        RETE_WM_SIZES, build_engine, observe, probe_per_event, stream,
    )

    # Equivalence + end-to-end speedup on the retained event stream.
    best = {"rete": float("inf"), "naive": float("inf")}
    outcomes = {}
    for _ in range(RULE_ENGINE_REPS):
        for label, rete in (("rete", True), ("naive", False)):
            engine = build_engine(rete=rete)
            start = time.perf_counter()
            stream(engine, RULE_ENGINE_STREAM)
            best[label] = min(best[label], time.perf_counter() - start)
            outcomes[label] = observe(engine)
    if outcomes["rete"] != outcomes["naive"]:
        print(
            "FAIL: rete and naive engines disagree on "
            "hits/fire-trace/agenda for the stream workload",
            file=sys.stderr,
        )
        return 1
    speedup = best["naive"] / best["rete"] if best["rete"] else float("inf")
    print(
        f"perf smoke: rule-engine stream ({RULE_ENGINE_STREAM} events) "
        f"rete={best['rete'] * 1000:.1f} ms "
        f"naive={best['naive'] * 1000:.1f} ms "
        f"speedup={speedup:.0f}x"
    )
    if speedup < RULE_ENGINE_SPEEDUP:
        print(
            f"FAIL: rete speedup {speedup:.1f}x is below the "
            f"{RULE_ENGINE_SPEEDUP:.0f}x gate",
            file=sys.stderr,
        )
        return 1

    # Flat scaling: per-event probe cost across 100x WM growth.
    engine = build_engine(rete=True)
    per_event = {}
    grown = 0
    for size in RETE_WM_SIZES:
        stream(engine, size - grown, start=grown)
        grown = size
        per_event[size] = min(
            probe_per_event(engine) for _ in range(RULE_ENGINE_REPS)
        )
    small, large = RETE_WM_SIZES[0], RETE_WM_SIZES[-1]
    ratio = per_event[large] / per_event[small] if per_event[small] else 1.0
    print(
        "perf smoke: rete per-event cost "
        + " ".join(
            f"wm={size}:{per_event[size] * 1e6:.0f}us"
            for size in RETE_WM_SIZES
        )
        + f" flat-ratio={ratio:.2f}"
    )
    if ratio > RULE_ENGINE_FLAT_RATIO:
        print(
            f"FAIL: rete per-event cost grew {ratio:.2f}x from "
            f"{small} to {large} facts (gate "
            f"{RULE_ENGINE_FLAT_RATIO:.0f}x — matching is not flat)",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: rete is >= {RULE_ENGINE_SPEEDUP:.0f}x faster than the "
        "naive matcher, observationally identical, and flat across "
        f"{large // small}x working-memory growth"
    )
    return 0


#: Name -> check, in default execution order (``perf_smoke <name>...``
#: runs a subset — the CI cache job runs just ``verdict_cache``).
CHECKS = {
    "block_cache": check_block_cache,
    "block_jit": check_block_jit,
    "inline_monitor": check_inline_monitor,
    "loop_traces": check_loop_traces,
    "slices": check_slices,
    "fastpath": check_fastpath,
    "fleet": check_fleet,
    "provenance": check_provenance,
    "verdict_cache": check_verdict_cache,
    "rule_engine": check_rule_engine,
}


def main(argv=None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        print(
            f"unknown check(s) {unknown}; available: {list(CHECKS)}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        status = CHECKS[name]()
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
