"""Table 7 — false-positive study on eleven trusted programs.

The paper's table distinguishes "correctly identified any good behavior"
from "partially or inaccurately identified inappropriate behavior"
(make, g++, xeyes draw acceptable Low warnings; the rest run clean).
"""

from benchmarks.harness import (
    assert_all_match,
    emit_classification_table,
    once,
    run_workloads,
)
from repro.core.report import Verdict
from repro.programs.trusted import table7_workloads


def bench_table7_trusted_programs(benchmark):
    results = once(benchmark, lambda: run_workloads(table7_workloads()))
    emit_classification_table(
        "Table 7: HTH on well-behaved programs (false-positive study)",
        "table7_trusted.txt",
        results,
    )
    assert_all_match(results)
    clean = [w.name for w, r in results if r.verdict is Verdict.BENIGN]
    assert clean == ["ls", "column", "awk", "pico", "tail", "diff",
                     "wc", "bc"]
