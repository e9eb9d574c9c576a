"""Section 8.4 — macro benchmarks: pwsafe (+trojan), mw2.2.1 (+forking
script, dataflow off), Ultra Tic Tac Toe (+trojan)."""

from benchmarks.harness import (
    assert_all_match,
    emit_classification_table,
    once,
    run_workloads,
)
from repro.programs.macro import macro_workloads


def bench_macro_benchmarks(benchmark):
    results = once(benchmark, lambda: run_workloads(macro_workloads()))
    emit_classification_table(
        "Section 8.4: Macro benchmarks (clean vs trojaned pairs)",
        "macro_benchmarks.txt",
        results,
    )
    assert_all_match(results)
