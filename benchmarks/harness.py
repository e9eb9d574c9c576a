"""Shared benchmark harness: table rendering, suite runners, result files.

Every ``bench_*`` module regenerates one table or figure from the paper:
it runs the corresponding workloads under HTH, renders the rows in the
paper's layout (expected vs. measured classification), writes the table
to ``benchmarks/results/``, and asserts the measured shape matches.
"""

from __future__ import annotations

import pathlib
from typing import List, Sequence, Tuple

from repro.core.report import RunReport
from repro.programs.base import Workload

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]

    def fmt(row):
        return " | ".join(str(v).ljust(w) for v, w in zip(row, widths))

    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title), fmt(headers), sep]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_result(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text)
    return path


def run_workloads(
    workloads: Sequence[Workload],
    telemetry=None,
) -> List[Tuple[Workload, RunReport]]:
    return [(w, w.run(telemetry=telemetry)) for w in workloads]


#: Registry totals every benchmark footprint table reports.
FOOTPRINT_METRICS = (
    ("instructions", "cpu_instructions_total"),
    ("syscalls", "kernel_syscalls_total"),
    ("bb executions", "harrier_bb_executions"),
    ("harrier events", "harrier_events_emitted_total"),
    ("secpert facts", "secpert_facts_asserted_total"),
)


def workload_footprint(workload: Workload) -> dict:
    """Run one workload under an enabled hub; return registry totals.

    The numbers come from the live telemetry registry, not from ad-hoc
    counters in the benchmark — the benchmarks consume the same metrics
    the rest of the stack exposes.
    """
    from repro.telemetry import Telemetry

    telemetry = Telemetry.enabled()
    workload.run(telemetry=telemetry)
    registry = telemetry.metrics
    return {
        label: registry.total(metric)
        for label, metric in FOOTPRINT_METRICS
    }


def classification_rows(
    results: Sequence[Tuple[Workload, RunReport]],
) -> List[Tuple[str, str, str, str, str]]:
    """(name, expected, measured, rules fired, correct?) rows."""
    rows = []
    for workload, report in results:
        rules = ",".join(sorted({w.rule for w in report.warnings})) or "-"
        rows.append(
            (
                workload.name,
                workload.expected_verdict.value,
                report.verdict.value,
                rules,
                "yes" if workload.classified_correctly(report) else "NO",
            )
        )
    return rows


CLASSIFICATION_HEADERS = (
    "benchmark", "paper verdict", "measured", "rules fired", "match"
)


def emit_classification_table(
    title: str,
    filename: str,
    results: Sequence[Tuple[Workload, RunReport]],
) -> str:
    text = render_table(
        title, CLASSIFICATION_HEADERS, classification_rows(results)
    )
    write_result(filename, text)
    print("\n" + text)
    return text


def assert_all_match(results: Sequence[Tuple[Workload, RunReport]]) -> None:
    mismatches = [
        w.name for w, r in results if not w.classified_correctly(r)
    ]
    assert not mismatches, f"classification mismatches: {mismatches}"


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
