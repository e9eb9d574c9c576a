#!/usr/bin/env python
"""Static Secure Binary audit (paper Appendix B).

Applies the Secure Binary checker to the whole evaluation corpus — the
micro-benchmarks, the trusted tools, and the real exploits — and prints
which binaries hardcode resource identifiers or resource content.

A binary that passes is *safer*, not safe; a binary that fails is a
strong Trojan/backdoor candidate before it ever runs.

Run:  python examples/secure_binary_audit.py
"""

from repro.analysis.secure_binary import check_secure_binary
from repro.programs.exploits import table8_workloads
from repro.programs.micro.execflow import table4_workloads
from repro.programs.trusted import table7_workloads


def audit(title, workloads) -> None:
    print(title)
    print("-" * len(title))
    for workload in workloads:
        report = check_secure_binary(workload.image())
        status = "SECURE    " if report.is_secure else "NOT SECURE"
        print(f"  {status} {workload.name}")
        for violation in report.violations[:3]:
            print(f"             - {violation}")
        if len(report.violations) > 3:
            print(f"             ... {len(report.violations) - 3} more")
    print()


def main() -> None:
    audit("Micro-benchmarks (Table 4)", table4_workloads())
    audit("Trusted programs (Table 7)", table7_workloads())
    audit("Real exploits (Table 8)", table8_workloads())


if __name__ == "__main__":
    main()
