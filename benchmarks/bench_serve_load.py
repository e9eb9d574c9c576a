"""Serve daemon under load and under fire.

Two phases, one artifact (``benchmarks/results/BENCH_serve_load.json``):

* **load** — ≥1000 submissions held concurrently from one asyncio event
  loop against a live daemon (wide-open admission, the bench measures
  the execution path, not the limiter).  Reported: client-observed
  p50/p90/p99/max latency, throughput, peak concurrency, and the
  zero-lost ledger — every submission must end in exactly one terminal
  ``report`` event.
* **chaos** — a smaller mixed round (Trojan workload, slow benign
  sources, a fault-profiled submission) while the chaos monkey
  hard-kills workers mid-job.  The service contract is asserted, not
  eyeballed: every submission answered, no transport errors, and every
  non-faulted report bit-identical to a batch ``Session`` run of the
  same work.

Runnable standalone (``python -m benchmarks.bench_serve_load``) or via
pytest-benchmark like the other bench modules.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import tempfile
import time
from collections import Counter

from benchmarks.harness import render_table, write_result
from repro.api import Session
from repro.core.options import RunOptions
from repro.faultinject import DaemonChaosProfile, FaultProfile, run_serve_chaos
from repro.serve import ServeDaemon, Submission, submit_async
from repro.serve.worker import execute_submission

#: Load-phase floor the artifact must demonstrate.
LOAD_SUBMISSIONS = 1000
LOAD_WORKERS = 2
#: Launch connections in waves so the listen backlog never overflows;
#: earlier waves stay open (unanswered) while later ones connect, so
#: concurrency still peaks at the full submission count.
WAVE_SIZE = 100

BENIGN_SRC = "main:\n    mov eax, 0\n    ret\n"

#: ~0.5s of guest time for the chaos phase — long enough for kills to
#: land mid-run.
SLOW_SRC = """
main:
    mov ecx, 250000
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    ret
"""

#: ~2.5s wedge that pins every worker while the full load connects, so
#: the whole batch is verifiably concurrent before any of it drains.
WEDGE_SRC = SLOW_SRC.replace("250000", "1200000")


def _raise_fd_limit(need: int) -> None:
    """1k concurrent client+server sockets needs >2k descriptors."""
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = min(hard, max(soft, need))
    if want > soft:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        max(0, int(round(q * (len(sorted_values) - 1)))),
    )
    return sorted_values[index]


async def _load_phase(unix_path: str, count: int, workers: int) -> dict:
    daemon = ServeDaemon(
        unix_path=unix_path,
        workers=workers,
        queue_limit=count + 16,   # wide open: measure execution, not limits
    )
    await daemon.start()
    await daemon.wait_ready()

    latencies = []
    outcomes: Counter = Counter()
    in_flight = 0
    peak = 0

    async def one(index: int) -> None:
        nonlocal in_flight, peak
        submission = Submission(source=BENIGN_SRC, name=f"load-{index}")
        started = time.perf_counter()
        in_flight += 1
        peak = max(peak, in_flight)
        try:
            events = await submit_async(unix_path, submission)
            outcomes[events[-1].get("kind", "none")] += 1
        except Exception:
            outcomes["transport-error"] += 1
        finally:
            in_flight -= 1
            latencies.append(time.perf_counter() - started)

    started = time.perf_counter()

    # Pin every worker with a wedge job while the batch connects: the
    # peak-concurrency number then measures the real promise (the whole
    # batch open and admitted at once), not launch/drain overlap.
    wedge = Submission(
        source=WEDGE_SRC, name="wedge",
        options=RunOptions(max_ticks=20_000_000),
    )
    wedges = [
        asyncio.ensure_future(submit_async(unix_path, wedge))
        for _ in range(workers)
    ]
    while daemon.supervisor.idle_workers():
        await asyncio.sleep(0.01)

    tasks = []
    for index in range(count):
        tasks.append(asyncio.ensure_future(one(index)))
        if index % WAVE_SIZE == WAVE_SIZE - 1:
            await asyncio.sleep(0.005)
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - started
    wedge_outcomes = await asyncio.gather(*wedges)
    assert all(e[-1]["kind"] == "report" for e in wedge_outcomes)
    await daemon.shutdown(drain=True)

    latencies.sort()
    answered = outcomes["report"] + outcomes["error"] + outcomes["rejected"]
    return {
        "submissions": count,
        "workers": workers,
        "wall_seconds": wall,
        "throughput_rps": count / wall if wall else float("inf"),
        "peak_concurrent": peak,
        "latency_seconds": {
            "p50": _percentile(latencies, 0.50),
            "p90": _percentile(latencies, 0.90),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
        "outcomes": dict(outcomes),
        "answered": answered,
        "lost": count - answered,
    }


def _chaos_submissions():
    return [
        Submission(workload=("4", "Remote execve"), name="remote-execve"),
        Submission(workload=("4", "User input"), name="user-input"),
        *(
            Submission(source=SLOW_SRC, name=f"slow-{i}")
            for i in range(6)
        ),
        Submission(
            source=SLOW_SRC, name="faulted",
            options=RunOptions(
                fault_profile=FaultProfile(stall_rate=0.2), fault_seed=11
            ),
        ),
    ]


async def _chaos_phase(unix_path: str) -> dict:
    submissions = _chaos_submissions()
    session = Session()
    baseline = {
        sub.name: execute_submission(session, sub)[0].to_dict()
        for sub in submissions
        if sub.options.fault_profile is None
    }
    daemon = ServeDaemon(
        unix_path=unix_path, workers=2, queue_limit=64, max_retries=2
    )
    await daemon.start()
    await daemon.wait_ready()
    result = await run_serve_chaos(
        daemon,
        submissions,
        profile=DaemonChaosProfile(kill_interval=0.2, kills=3),
        seed=1337,
        baseline=baseline,
    )
    await daemon.shutdown(drain=True)
    summary = result.summary()
    summary["all_answered"] = result.all_answered
    return summary


def run_serve_load() -> dict:
    _raise_fd_limit(4 * LOAD_SUBMISSIONS)
    with tempfile.TemporaryDirectory() as tmp:
        load = asyncio.run(
            _load_phase(
                os.path.join(tmp, "load.sock"),
                LOAD_SUBMISSIONS,
                LOAD_WORKERS,
            )
        )
        chaos = asyncio.run(
            _chaos_phase(os.path.join(tmp, "chaos.sock"))
        )

    results = {
        "load": load,
        "chaos": chaos,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
    }
    write_result(
        "BENCH_serve_load.json", json.dumps(results, indent=2) + "\n"
    )

    latency = load["latency_seconds"]
    text = render_table(
        "serve daemon: concurrent load + chaos",
        ("phase", "submissions", "answered", "lost", "p50 ms", "p99 ms",
         "notes"),
        [
            (
                "load", load["submissions"], load["answered"],
                load["lost"],
                f"{latency['p50'] * 1000:.0f}",
                f"{latency['p99'] * 1000:.0f}",
                f"{load['throughput_rps']:.0f} rps, "
                f"peak {load['peak_concurrent']} concurrent",
            ),
            (
                "chaos", chaos["submissions"], chaos["answered"],
                len(chaos["lost"]),
                "-", "-",
                f"{chaos['kills']} kills, "
                f"{len(chaos['retried'])} retried, "
                f"{len(chaos['mismatches'])} mismatches",
            ),
        ],
    )
    write_result("serve_load.txt", text)
    print("\n" + text)

    # the robustness contract, asserted
    assert load["submissions"] >= 1000
    assert load["peak_concurrent"] >= 1000, (
        f"only {load['peak_concurrent']} submissions were concurrent"
    )
    assert load["lost"] == 0, f"lost submissions: {load['outcomes']}"
    assert load["outcomes"].get("report") == load["submissions"], (
        f"non-report outcomes under plain load: {load['outcomes']}"
    )
    assert chaos["all_answered"], f"chaos lost: {chaos['lost']}"
    assert chaos["mismatches"] == [], (
        "served reports diverged from batch for non-faulted submissions"
    )
    return results


def bench_serve_load(benchmark):
    """1000 concurrent submissions + a chaos round, timed once."""
    from benchmarks.harness import once

    once(benchmark, run_serve_load)


if __name__ == "__main__":
    run_serve_load()
