"""Chaos stability — the Table 8 exploits re-detected under injected
faults.

The property under test: HTH's verdict for every real exploit is
*unchanged* across 10 distinct deterministic fault schedules
(semantics-preserving stalls plus scheduler jitter — the transparent
profile).  A second leg runs the guest-visible semantic profile
(errno/reset/DNS faults) and asserts graceful degradation: no hang, no
crash, a coherent report per run.
"""

from benchmarks.harness import render_table, write_result, once
from repro.faultinject import (
    SEMANTIC_PROFILE,
    TRANSPARENT_PROFILE,
    run_chaos_suite,
)
from repro.programs.exploits import table8_workloads

TRIALS = 10
BASE_SEED = 1337


def _rows(results):
    rows = []
    for result in results:
        verdicts = ",".join(sorted({v.value for v in result.verdicts}))
        rows.append(
            (
                result.workload,
                result.expected.value,
                verdicts,
                str(result.total_faults),
                "yes" if result.stable else "NO",
            )
        )
    return rows


def bench_chaos_table8_stability(benchmark):
    results = once(
        benchmark,
        lambda: run_chaos_suite(
            table8_workloads(),
            base_seed=BASE_SEED,
            trials=TRIALS,
            profile=TRANSPARENT_PROFILE,
        ),
    )
    text = render_table(
        f"Chaos stability: Table 8 verdicts under {TRIALS} fault seeds",
        ("benchmark", "paper verdict", "verdicts seen", "faults", "stable"),
        _rows(results),
    )
    write_result("chaos_stability.txt", text)
    print("\n" + text)
    unstable = [r.workload for r in results if not r.stable]
    assert not unstable, (
        f"verdict changed under transparent faults: {unstable}; replay "
        f"with `repro chaos --table 8 --workload <name> --seed <seed>`"
    )
    # The schedules did perturb the runs (faults actually landed).
    assert sum(r.total_faults for r in results) > 0


def bench_chaos_table8_sharded(benchmark):
    """The same stability sweep through the fleet path: sharding the
    (workload × seed) grid across processes must not change a single
    trial — (workload, profile, seed) determines each run bit-for-bit."""
    from repro.fleet import WorkloadRef

    refs = [
        WorkloadRef.from_registry("8", w.name)
        for w in table8_workloads()
    ]
    sharded = once(
        benchmark,
        lambda: run_chaos_suite(
            refs,
            base_seed=BASE_SEED,
            trials=TRIALS,
            profile=TRANSPARENT_PROFILE,
            workers=2,
        ),
    )
    serial = run_chaos_suite(
        table8_workloads(),
        base_seed=BASE_SEED,
        trials=TRIALS,
        profile=TRANSPARENT_PROFILE,
    )
    assert [r.workload for r in sharded] == [r.workload for r in serial]
    for s_result, f_result in zip(serial, sharded):
        assert f_result.stable == s_result.stable
        assert f_result.verdicts == s_result.verdicts
        assert f_result.total_faults == s_result.total_faults
        assert [t.reason for t in f_result.trials] == (
            [t.reason for t in s_result.trials]
        )


def bench_chaos_table8_graceful_degradation(benchmark):
    results = once(
        benchmark,
        lambda: run_chaos_suite(
            table8_workloads(),
            base_seed=BASE_SEED,
            trials=TRIALS,
            profile=SEMANTIC_PROFILE,
        ),
    )
    # Guest-visible faults may legitimately move a verdict (an exploit
    # whose connect is reset has nothing to exfiltrate), so the asserted
    # property is weaker: every run terminates cleanly.
    for result in results:
        for trial in result.trials:
            assert trial.reason != "watchdog", (
                f"{result.workload} wedged under seed {trial.seed}"
            )
