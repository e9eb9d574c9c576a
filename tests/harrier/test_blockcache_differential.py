"""Differential suite: every registered workload, production vs oracles.

The block translation cache, the block JIT and the zero-taint fast path
are pure performance substrates — it must be impossible to tell from
any observable output that the guest did not run on the reference
per-instruction interpreter, or that its taint was not replayed
transfer by transfer.  This runs the entire Table 4-8 + macro +
extension + scenario registries in production and under each oracle
(``tests/oracles``) and asserts the *full* report fingerprint matches:
verdict, warnings, events, console output, fault log, virtual clock,
per-process exit codes, and the monitor's internal shadow state (BB
counters, register/memory tags).
"""

import contextlib
import importlib

import pytest

from tests.oracles import (
    fuse_every_block,
    reference_interpreter,
    template_replay,
)

_REGISTRIES = (
    ("table4", "repro.programs.micro.execflow", "table4_workloads"),
    ("table5", "repro.programs.micro.resource", "table5_workloads"),
    ("table6", "repro.programs.micro.infoflow", "table6_workloads"),
    ("table7", "repro.programs.trusted.registry", "table7_workloads"),
    ("table8", "repro.programs.exploits.registry", "table8_workloads"),
    ("macro", "repro.programs.macro.registry", "macro_workloads"),
    ("ext", "repro.programs.extensions", "extension_workloads"),
    ("scenarios", "repro.programs.scenarios", "scenario_workloads"),
)


def _all_workloads():
    out = []
    for table, module_name, factory in _REGISTRIES:
        module = importlib.import_module(module_name)
        for workload in getattr(module, factory)():
            out.append(pytest.param(workload, id=f"{table}-{workload.name}"))
    return out


def _shadow_fingerprint(hth):
    """Monitor-internal state per process, in pid order."""
    rows = []
    for pid in sorted(hth.kernel.procs):
        proc = hth.kernel.procs[pid]
        shadow = proc.meta.get("harrier.shadow")
        if shadow is None:
            rows.append((pid, None))
            continue
        rows.append((
            pid,
            dict(shadow.bb_counts),
            shadow.last_app_bb,
            shadow.regs.snapshot(),
            dict(shadow.memory.cell_tags),
        ))
    return rows


def _run_fingerprint(workload, oracle=contextlib.nullcontext,
                     provenance=True):
    from repro.core.options import RunOptions

    with oracle():
        hth = workload.build_machine(
            options=RunOptions(provenance=provenance)
        )
        report = hth.run(
            workload.image(),
            argv=workload.argv or [workload.program_path],
            env=workload.env,
            stdin=workload.stdin,
            max_ticks=workload.max_ticks,
        )
    return {
        "verdict": report.verdict,
        # repr() includes the evidence trail, so this fingerprint also
        # holds evidence bit-identity across execution modes.
        "warnings": [repr(w) for w in report.warnings],
        "events": [str(e) for e in report.events],
        "console": report.console_output,
        "exit_code": report.exit_code,
        "reason": report.result.reason,
        "ticks": report.result.ticks,
        "instructions": report.result.instructions,
        "exit_codes": report.result.exit_codes,
        "faults": report.faults,
        "killed_by_monitor": report.killed_by_monitor,
        "shadow": _shadow_fingerprint(hth),
    }


@pytest.mark.parametrize("workload", _all_workloads())
def test_cached_execution_is_indistinguishable(workload):
    cached = _run_fingerprint(workload)
    interp = _run_fingerprint(workload, oracle=reference_interpreter)
    for key in cached:
        assert cached[key] == interp[key], (
            f"{workload.name}: {key} diverges between block-cache and "
            f"interpreter execution"
        )


@pytest.mark.parametrize("workload", _all_workloads())
def test_fused_execution_is_indistinguishable(workload):
    """Every block fused from its first execution (not only the hot
    ones) still matches the reference interpreter."""
    fused = _run_fingerprint(workload, oracle=fuse_every_block)
    interp = _run_fingerprint(workload, oracle=reference_interpreter)
    for key in fused:
        assert fused[key] == interp[key], (
            f"{workload.name}: {key} diverges between fused-block and "
            f"interpreter execution"
        )


@pytest.mark.parametrize("workload", _all_workloads())
def test_fastpath_is_indistinguishable(workload):
    fast = _run_fingerprint(workload)
    slow = _run_fingerprint(workload, oracle=template_replay)
    for key in fast:
        assert fast[key] == slow[key], (
            f"{workload.name}: {key} diverges between summary fast path "
            f"and per-transfer template replay"
        )


@pytest.mark.parametrize("workload", _all_workloads())
def test_provenance_recorder_is_transparent(workload):
    """Disabling the evidence recorder changes nothing but the evidence.

    The recorder is an observer: verdicts, warnings (modulo their
    ``evidence`` field, which is excluded from SecurityWarning equality),
    events, clocks, and shadow state must be identical with it on or
    off — otherwise recording trails would perturb detection.
    """
    on = _run_fingerprint(workload, provenance=True)
    off = _run_fingerprint(workload, provenance=False)
    on_warnings = on.pop("warnings")
    off_warnings = off.pop("warnings")
    # Strip the evidence trail out of the reprs before comparing.
    import re

    def strip(reprs):
        return [re.sub(r"evidence=.*\)$", "evidence=...)", r)
                for r in reprs]

    assert strip(on_warnings) == strip(off_warnings), (
        f"{workload.name}: warnings diverge when provenance is disabled"
    )
    for key in on:
        assert on[key] == off[key], (
            f"{workload.name}: {key} diverges when provenance is disabled"
        )
