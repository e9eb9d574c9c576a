"""The benchmark's own tests: seeded inputs and repeatable work counts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import workloads  # noqa: E402


def _stream(seed: int, n: int = 300) -> str:
    stream = generate.ServeStream(seed)
    return json.dumps([
        (item.first, item.kind, item.wire, item.expected_verdict)
        for item in (stream[i] for i in range(n))
    ], sort_keys=True)


def _sweep_plan(seed: int) -> str:
    from repro.advers import plan_sweep
    from repro.programs.mutate import variants

    vseed = generate.sweep_seeds(seed, 1)[0]
    plan = plan_sweep(seed=vseed)
    sources = [
        variants(*planned.ref.params)[0].source for planned in plan[::15]
    ]
    return json.dumps(
        [[planned.ref.name, planned.expected_verdict] for planned in plan]
        + sources
    )


GENERATORS = {
    "long-guest": lambda seed: repr(generate.long_guest(seed)),
    "event-stream": lambda seed: repr(generate.event_stream(seed)),
    "variant-sweep": _sweep_plan,
    "serve-mix": _stream,
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_one_seed_gives_identical_inputs(workload):
    make = GENERATORS[workload]
    assert make(7) == make(7)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_another_seed_gives_different_inputs(workload):
    make = GENERATORS[workload]
    assert make(7) != make(8)


def test_seed_changes_data_not_amount_of_work():
    for make in (generate.long_guest, generate.event_stream):
        a, b = make(1), make(2)
        assert a.source == b.source
        assert [len(v) for v in a.files.values()] == [
            len(v) for v in b.files.values()
        ]
        assert [len(v) for v in a.argv] == [len(v) for v in b.argv]


def test_serve_repeats_point_far_enough_back():
    stream = generate.ServeStream(3)
    repeats = [stream[i] for i in range(2000) if stream[i].first != i]
    assert 650 < len(repeats) < 950
    for item in repeats:
        back = item.index - item.first
        assert back >= generate.REPEAT_MIN
        assert stream[item.first].wire == item.wire


def test_transform_reference_matches_guest():
    from repro.api import Session

    guest = generate.long_guest(5)
    holder = {}
    report = Session().run(
        guest.source, argv=list(guest.argv),
        setup=workloads._setup_fn(guest, holder), path=guest.path,
    )
    data = guest.files[generate.INPUT_PATH].encode()
    node = holder["hth"].fs.lookup(generate.OUTPUT_PATH)
    assert report.verdict.value == "benign"
    assert node.data == generate.transform_reference(
        data, generate.LONG_PASSES
    )


def _traced_counts(workload: str, seed: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {name: entry["unit"] for name, entry in metrics.items()} == {
        entry["name"]: entry["unit"] for entry in declared["per_layer"]
    }
    return {
        name: entry["value"] for name, entry in metrics.items()
        if name.startswith("work.") or name in (
            "isa.blocks_translated", "kernel.syscalls", "harrier.blocks",
            "harrier.events", "secpert.analyze_calls", "secpert.warnings",
        )
    }


def test_untraced_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "long-guest",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    assert {n: e["unit"] for n, e in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in declared["end_to_end"]
    }
    assert all(e["value"] > 0 for e in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat_for_one_seed(workload):
    first = _traced_counts(workload, 11)
    assert first["work.cpu_instructions"] > 0
    assert _traced_counts(workload, 11) == first
