"""Appendix B — the Secure Binary static checker, applied to the
evaluation corpus: every Trojan/exploit image violates the rules, while
the user-driven benign programs pass.
"""

from benchmarks.harness import once, render_table, write_result
from repro.analysis.secure_binary import check_secure_binary
from repro.programs.exploits import table8_workloads
from repro.programs.micro.execflow import table4_workloads


def run_checks():
    rows = []
    # micro: the user-input execve is Secure, the hardcoded one is not
    micro = {w.name: w for w in table4_workloads()}
    for name in ("User input", "Hardcode"):
        report = check_secure_binary(micro[name].image())
        rows.append((name, "micro", "yes" if report.is_secure else "NO",
                     len(report.violations)))
    for workload in table8_workloads():
        report = check_secure_binary(workload.image())
        rows.append((workload.name, "exploit",
                     "yes" if report.is_secure else "NO",
                     len(report.violations)))
    return rows


def bench_appb_secure_binary(benchmark):
    rows = once(benchmark, run_checks)
    text = render_table(
        "Appendix B: Secure Binary static check",
        ("binary", "suite", "secure?", "violations"),
        rows,
    )
    write_result("appb_secure_binary.txt", text)
    print("\n" + text)
    by_name = {r[0]: r for r in rows}
    assert by_name["User input"][2] == "yes"
    assert by_name["Hardcode"][2] == "NO"
    # every real exploit hardcodes at least one resource identifier
    exploit_rows = [r for r in rows if r[1] == "exploit"]
    assert all(r[2] == "NO" for r in exploit_rows)
