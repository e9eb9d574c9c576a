"""Rule-engine matching cost: incremental Rete vs the naive re-join.

The property that justifies the Rete network (and that CLIPS gave the
paper for free): per-event match cost must stay *flat* as working
memory accumulates, because the network only touches the delta.  The
naive matcher (the ``tests/oracles`` reference, installed with
``naive_matcher``) re-joins every rule against every fact per firing, so its
per-event cost grows linearly with working-memory size — a daemon
retaining session state slows down the longer it runs.

The workload is rule-heavy and event-heavy on purpose: 20 productions
(threshold, two-pattern join, and negation shapes over 8 event kinds),
32 keyed state facts, and a deterministic event stream that *retains*
its events, so working memory grows while the detector keeps firing.

Three measurements, each repeated ``REPEATS`` times (the results keep
the median and quartiles, the repeat count and the host):

* ``per_event`` — probe cost (assert + run + retract, amortized over
  ``PROBE_EVENTS`` probes) at increasing retained-WM sizes, for both
  engines.  Rete must stay flat across a 100x WM growth; the naive
  numbers document the linear growth (measured at the smaller sizes
  only — quiescing a 10k-fact naive engine takes minutes, which is
  itself the point).
* ``stream`` — end-to-end wall time for the retained event stream
  (assert + fire per event), rete vs naive, and the speedup.
* ``equivalence`` — both engines see the same stream and must agree on
  rule hits and fire-trace, asserted here and gated in perf_smoke.

Results land in ``benchmarks/results/rule_engine.txt`` and
``benchmarks/results/BENCH_rule_engine.json``.  The hard gates
(>=3x stream speedup, flat scaling) live in ``benchmarks.perf_smoke``
(``check_rule_engine``).

Runnable standalone (``python -m benchmarks.bench_rule_engine``) or via
pytest-benchmark like the other bench modules.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import statistics
import time

from benchmarks.harness import render_table, write_result
from repro.expert import (
    InferenceEngine,
    Not,
    Pattern,
    Rule,
    Template,
    Test,
    V,
)
from repro.telemetry.overhead import quartiles
from tests.oracles import naive_matcher

KINDS = [f"kind{i}" for i in range(8)]
KEYS = [f"key{i}" for i in range(32)]

#: Probes amortized per per-event measurement.
PROBE_EVENTS = 200

#: Retained-WM sizes for the flat-scaling curve (100x growth).
RETE_WM_SIZES = (100, 1_000, 10_000)
#: The naive engine is only quiesced at the small sizes (linear growth
#: makes the large ones pointless to wait for).
NAIVE_WM_SIZES = (100, 400)

#: End-to-end stream length for the speedup measurement.
STREAM_EVENTS = 150

#: Times every measurement is repeated (the JSON keeps the median and
#: quartiles of the repeats).
REPEATS = 5


def build_engine(rete: bool) -> InferenceEngine:
    """20 productions over event/state/suppress working memory, matched
    by the Rete network or (``rete=False``) by the naive oracle."""
    with contextlib.nullcontext() if rete else naive_matcher():
        engine = InferenceEngine()
    engine.define_template(Template.define("event", "kind", "key", "val"))
    engine.define_template(Template.define("state", "key", "lvl"))
    engine.define_template(Template.define("suppress", "key"))
    engine.context["hits"] = 0

    def hit(ctx):
        ctx.context["hits"] += 1

    for i, kind in enumerate(KINDS):
        engine.add_rule(Rule(
            name=f"thresh-{kind}",
            lhs=[
                Pattern("event", kind=kind, val=V("v")),
                Test(lambda b, floor=i % 4: b["v"] > floor),
            ],
            action=hit,
        ))
    for kind in KINDS:
        engine.add_rule(Rule(
            name=f"join-{kind}",
            lhs=[
                Pattern("event", kind=kind, key=V("k"), val=V("v")),
                Pattern("state", key=V("k"), lvl=V("l")),
                Test(lambda b: b["v"] >= b["l"]),
            ],
            action=hit,
            salience=1,
        ))
    for kind in KINDS[:4]:
        engine.add_rule(Rule(
            name=f"fresh-{kind}",
            lhs=[
                Pattern("event", kind=kind, key=V("k")),
                Not(Pattern("suppress", key=V("k"))),
            ],
            action=hit,
            salience=2,
        ))

    for i, key in enumerate(KEYS):
        engine.assert_fact(
            engine.templates["state"].make(key=key, lvl=i % 4)
        )
        if i % 2:
            engine.assert_fact(
                engine.templates["suppress"].make(key=key)
            )
    engine.run()
    return engine


def make_event(engine: InferenceEngine, sequence: int):
    return engine.templates["event"].make(
        kind=KINDS[sequence % len(KINDS)],
        key=KEYS[(sequence * 7) % len(KEYS)],
        val=sequence % 6,
    )


def stream(engine: InferenceEngine, count: int, start: int = 0) -> None:
    """Retained event stream: assert + fire per event, WM grows."""
    for sequence in range(start, start + count):
        engine.assert_fact(make_event(engine, sequence))
        engine.run()


def probe_per_event(engine: InferenceEngine,
                    probes: int = PROBE_EVENTS) -> float:
    """Seconds per ephemeral event (assert + run + retract), amortized."""
    start = time.perf_counter()
    for sequence in range(probes):
        fact = engine.assert_fact(make_event(engine, sequence))
        engine.run()
        engine.retract(fact)
    return (time.perf_counter() - start) / probes


def observe(engine: InferenceEngine):
    """The observable surface the two engines must agree on."""
    return (
        engine.context["hits"],
        [(f.rule_name, f.fact_ids) for f in engine.fire_trace],
        len(engine.agenda()),
    )


def measure():
    """Every timing :data:`REPEATS` times; medians and quartiles kept."""
    per_event = {"rete": {}, "naive": {}}

    # Flat-scaling curve: one rete engine grown through the sizes.
    engine = build_engine(rete=True)
    grown = 0
    for size in RETE_WM_SIZES:
        stream(engine, size - grown, start=grown)
        grown = size
        per_event["rete"][size] = [
            probe_per_event(engine) for _ in range(REPEATS)
        ]

    for size in NAIVE_WM_SIZES:
        engine = build_engine(rete=False)
        stream(engine, size)
        per_event["naive"][size] = [
            probe_per_event(engine) for _ in range(REPEATS)
        ]

    # End-to-end retained stream, both engines interleaved, plus
    # equivalence on every repeat.
    timings = {"rete": [], "naive": []}
    identical = True
    for _ in range(REPEATS):
        outcomes = {}
        for label, rete in (("rete", True), ("naive", False)):
            engine = build_engine(rete=rete)
            start = time.perf_counter()
            stream(engine, STREAM_EVENTS)
            timings[label].append(time.perf_counter() - start)
            outcomes[label] = observe(engine)
        identical = identical and outcomes["rete"] == outcomes["naive"]

    rete_curve = per_event["rete"]
    return {
        "repeats": REPEATS,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "per_event": {
            name: {str(size): quartiles(samples)
                   for size, samples in curve.items()}
            for name, curve in per_event.items()
        },
        "stream": {
            "events": STREAM_EVENTS,
            "rete_seconds": quartiles(timings["rete"]),
            "naive_seconds": quartiles(timings["naive"]),
            "speedup": (statistics.median(timings["naive"])
                        / statistics.median(timings["rete"])),
        },
        "equivalence": {"hits": outcomes["rete"][0], "identical": identical},
        "flat_ratio": (
            statistics.median(rete_curve[RETE_WM_SIZES[-1]])
            / statistics.median(rete_curve[RETE_WM_SIZES[0]])
        ),
    }


def report(results) -> str:
    rows = []
    for engine_name, curve in results["per_event"].items():
        for size, q in curve.items():
            rows.append((
                engine_name, size, f"{q['median'] * 1e6:.1f}",
                f"{q['q1'] * 1e6:.1f}-{q['q3'] * 1e6:.1f}",
            ))
    text = render_table(
        "Per-event match cost vs retained working-memory size",
        ("engine", "wm facts", "us/event (median)", "Q1-Q3"),
        rows,
    )
    stream_r = results["stream"]
    host = results["host"]
    text += (
        f"\nstream: {stream_r['events']} retained events — "
        f"rete {stream_r['rete_seconds']['median']:.3f}s, "
        f"naive {stream_r['naive_seconds']['median']:.3f}s (medians), "
        f"speedup {stream_r['speedup']:.1f}x\n"
        f"rete flat ratio across {RETE_WM_SIZES[0]} -> "
        f"{RETE_WM_SIZES[-1]} facts: {results['flat_ratio']:.2f}\n"
        f"{results['repeats']} repeats per timing; "
        f"{host['cpus']} cpu(s), Python {host['python']}\n"
    )
    return text


def run_benchmark():
    results = measure()
    text = report(results)
    print("\n" + text)
    write_result("rule_engine.txt", text)
    write_result(
        "BENCH_rule_engine.json", json.dumps(results, indent=2) + "\n"
    )

    # Shape assertions only — the hard gates live in perf_smoke.
    assert results["equivalence"]["identical"], \
        "rete and naive engines diverged on the stream workload"
    assert results["stream"]["speedup"] > 1.0, results["stream"]
    return results


def test_rule_engine_benchmark(benchmark):
    benchmark.pedantic(run_benchmark, rounds=1, iterations=1)


if __name__ == "__main__":
    run_benchmark()
