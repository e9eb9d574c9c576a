"""Verdict-cache throughput under realistic traffic mixes.

The cache's value depends on the mix of traffic hitting it, so we
measure the two ends of the spectrum the scaling docs reason about:

* duplicate-heavy — the always-on service shape: the same binary
  submitted over and over (automated resubmits, fleet re-sweeps of an
  unchanged corpus).  All but the first run hit.
* variant-heavy   — a polymorphic corpus: many near-duplicate variants
  (one patched data literal each), every variant resubmitted a few
  times.  Each *variant* misses exactly once — a patched literal moves
  the image digest — and repeats hit, so the hit rate lands at
  ``1 - unique/runs``.

Each mix is run through an uncached session and a cache-enabled
session, :data:`~repro.telemetry.overhead.REPS` interleaved times each;
the report is the median and quartiles of runs/sec for both, the
speedup of the medians, the measured hit rate, and the host.  The shape assertions are deliberately loose (this
is a throughput *report* — the hard 50x latency gate lives in
``benchmarks.perf_smoke``): hits must make the cached sweep faster,
and the hit rates must be exactly what the mix predicts, proving no
variant ever aliased another's verdict.

Results land in ``benchmarks/results/cache_throughput.txt`` and
``benchmarks/results/BENCH_cache_throughput.json``.
"""

import json
import os
import platform

from benchmarks.harness import render_table, write_result
from repro.api import Session, VerdictCache
from repro.telemetry.overhead import REPS, interleave, quartiles
from benchmarks.bench_performance import WORKLOAD_SOURCE

#: Variant template: one patched data literal per variant — identical
#: control flow and runtime, but a distinct assembled-image digest.
_VARIANT_TEMPLATE = """
main:
    mov edi, 0
spin:
    cmp edi, 8
    jge emit
    mov ebx, buf
    mov ecx, tag
    call strcpy
    add edi, 1
    jmp spin
emit:
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, tag
    call fputs
    mov ebx, esi
    call close
    mov eax, 0
    ret
.data
path: .asciz "/tmp/variant"
tag:  .asciz "variant-{n:03d}"
buf:  .space 32
"""

VARIANTS = 40
REPEATS = 5


def _duplicate_mix(runs=60):
    """The same §9 workload, ``runs`` times over."""
    return [("/bin/perf", WORKLOAD_SOURCE)] * runs


def _variant_mix():
    """VARIANTS distinct programs, interleaved so repeats of a variant
    never arrive back to back (the worst case for a naive MRU-only
    cache, the common case for a shared fleet store)."""
    sources = [
        (f"/bin/variant{n}", _VARIANT_TEMPLATE.format(n=n))
        for n in range(VARIANTS)
    ]
    return [sources[n] for _ in range(REPEATS) for n in range(VARIANTS)]


def _sweep(mix, cache):
    session = Session(cache=cache)
    for path, source in mix:
        report = session.run(source, path=path)
        assert report.exit_code == 0
    return cache


def _measure(mix):
    seconds = interleave({
        "uncached": lambda: _sweep(mix, None),
        "cached": lambda: _sweep(mix, VerdictCache()),
    })
    rates = {
        name: quartiles([len(mix) / s for s in samples])
        for name, samples in seconds.items()
    }
    cache = _sweep(mix, VerdictCache())
    return {
        "runs": len(mix),
        "unique_programs": len(set(mix)),
        "uncached_runs_per_sec": rates["uncached"],
        "cached_runs_per_sec": rates["cached"],
        "speedup": rates["cached"]["median"] / rates["uncached"]["median"],
        "hit_rate": cache.stats.hits / len(mix),
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
    }


def _rate(stats):
    return f"{stats['median']:.0f} ({stats['q1']:.0f}-{stats['q3']:.0f})"


def bench_cache_throughput(benchmark):
    def measure():
        return {
            "duplicate_heavy": _measure(_duplicate_mix()),
            "variant_heavy": _measure(_variant_mix()),
        }

    mixes = benchmark.pedantic(measure, rounds=1, iterations=1)
    host = {"cpus": os.cpu_count(), "python": platform.python_version()}
    rows = [
        (
            name,
            mix["runs"],
            mix["unique_programs"],
            _rate(mix["uncached_runs_per_sec"]),
            _rate(mix["cached_runs_per_sec"]),
            f"{mix['speedup']:.1f}x",
            f"{mix['hit_rate']:.2f}",
        )
        for name, mix in mixes.items()
    ]
    text = render_table(
        "Verdict-cache throughput by traffic mix",
        ("mix", "runs", "unique", "uncached runs/s (Q1-Q3)",
         "cached runs/s (Q1-Q3)", "speedup", "hit rate"),
        rows,
    ) + (
        f"{REPS} interleaved reps per session kind; "
        f"{host['cpus']} cpu(s), Python {host['python']}\n"
    )
    print("\n" + text)
    write_result("cache_throughput.txt", text)
    write_result(
        "BENCH_cache_throughput.json",
        json.dumps(
            {"reps": REPS, "interleaved": True, "host": host,
             "mixes": mixes},
            indent=2,
        ) + "\n",
    )

    dup, var = mixes["duplicate_heavy"], mixes["variant_heavy"]
    # Exactly one miss per distinct program, ever — content addressing
    # never aliases a patched variant onto another's verdict.
    assert dup["misses"] == dup["unique_programs"] == 1
    assert dup["hits"] == dup["runs"] - 1
    assert var["misses"] == var["unique_programs"] == VARIANTS
    assert var["hit_rate"] == 1 - VARIANTS / var["runs"]  # 0.8
    # Hits make the sweep faster; duplicate-heavy approaches pure
    # lookup throughput, variant-heavy still pays one execution per
    # variant so the win is smaller but must be real.
    assert dup["speedup"] > var["speedup"] > 1.0, mixes
