#!/usr/bin/env python
"""False-positive study on trusted programs (paper section 8.2).

Runs the eleven Table 7 trusted-program analogues and summarizes which
draw warnings — make, g++ and xeyes produce the paper's "acceptable"
Low warnings; the rest run clean.  Also demonstrates the paper's pico
anecdote: with the *incomplete-prototype* dataflow mode the editor draws
a spurious HIGH warning that the complete tracker avoids.

Run:  python examples/false_positive_study.py
"""

from repro.harrier.config import HarrierConfig
from repro.programs.trusted import table7_workloads


def main() -> None:
    print(f"{'program':10s} {'verdict':8s} warnings")
    print("-" * 50)
    for workload in table7_workloads():
        report = workload.run()
        rules = ", ".join(sorted({w.rule for w in report.warnings})) or "-"
        print(f"{workload.name:10s} {report.verdict.value:8s} {rules}")

    print()
    print("The pico anecdote (paper 8.2.6):")
    pico = next(w for w in table7_workloads() if w.name == "pico")

    complete = pico.run()
    print(f"  complete dataflow tracker : {complete.verdict.value}")

    compat = pico.run(
        harrier_config=HarrierConfig(complete_dataflow=False)
    )
    print(f"  incomplete-prototype mode : {compat.verdict.value}")
    print()
    print("The spurious warning the paper reports, reproduced:")
    print()
    for warning in compat.warnings:
        print(warning.render())
        break


if __name__ == "__main__":
    main()
