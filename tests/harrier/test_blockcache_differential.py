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
counters, register/memory tags) and its block counters (full and
prefix taint applications, provenance block notes), which fused blocks
keep in their inlined monitor code.
"""

import contextlib
import importlib

import pytest

from repro.harrier.config import HarrierConfig
from tests.oracles import (
    applier_calls,
    closure_only,
    fuse_every_block,
    no_traces,
    record_path,
    reference_interpreter,
    template_replay,
    trace_every_loop,
)

_REGISTRIES = (
    ("table4", "repro.programs.micro.execflow", "table4_workloads"),
    ("table5", "repro.programs.micro.resource", "table5_workloads"),
    ("table6", "repro.programs.micro.infoflow", "table6_workloads"),
    ("table7", "repro.programs.trusted", "table7_workloads"),
    ("table8", "repro.programs.exploits", "table8_workloads"),
    ("macro", "repro.programs.macro", "macro_workloads"),
    ("ext", "repro.programs.extensions", "extension_workloads"),
    ("scenarios", "repro.programs.scenarios", "scenario_workloads"),
)


def _workloads(tables=None):
    out = []
    for table, module_name, factory in _REGISTRIES:
        if tables is not None and table not in tables:
            continue
        module = importlib.import_module(module_name)
        for workload in getattr(module, factory)():
            out.append(pytest.param(workload, id=f"{table}-{workload.name}"))
    return out


def _all_workloads():
    return _workloads()


#: The section 9 monitor ablations, each of which inlines different
#: work into fused blocks (None: the workload's own configuration).
_ABLATIONS = {
    "full": None,
    "no-dataflow": {"track_dataflow": False},
    "no-bbfreq": {"track_bb_frequency": False},
    "no-provenance": {"provenance": False},
}


def _ablation_cases():
    """Every workload under the full monitor, and the Table 6 rows
    under each ablation."""
    cases = [
        pytest.param(w.values[0], "full", id=w.id) for w in _all_workloads()
    ]
    for name in _ABLATIONS:
        if name != "full":
            cases += [
                pytest.param(w.values[0], name, id=f"{w.id}-{name}")
                for w in _workloads(("table6",))
            ]
    return cases


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


def _counters(hth):
    """The monitor's block counters: kept by ``on_block`` and by the
    fused blocks' inlined code alike (the reference interpreter feeds
    Harrier per instruction and keeps none of them)."""
    harrier = hth.harrier
    prov = harrier.provenance
    return {
        "harrier.fastpath_blocks": harrier.fastpath_blocks,
        "harrier.slowpath_blocks": harrier.slowpath_blocks,
        "provenance.blocks_observed": (
            prov.blocks_observed if prov is not None else None),
        "provenance.block_tokens": (
            prov.block_tokens if prov is not None else None),
    }


def _run_fingerprint(workload, oracle=contextlib.nullcontext,
                     provenance=True, ablation="full"):
    from dataclasses import replace

    from repro.core.options import RunOptions

    config = None
    if _ABLATIONS[ablation] is not None:
        config = replace(workload.harrier_config or HarrierConfig(),
                         **_ABLATIONS[ablation])
    with oracle():
        hth = workload.build_machine(
            harrier_config=config,
            options=RunOptions(provenance=provenance),
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
        "counters": _counters(hth),
    }


def _assert_same(got, want, what, skip=()):
    for key in want:
        if key not in skip:
            assert got[key] == want[key], f"{key} diverges {what}"


@pytest.mark.parametrize("workload", _all_workloads())
def test_cached_execution_is_indistinguishable(workload):
    cached = _run_fingerprint(workload)
    interp = _run_fingerprint(workload, oracle=reference_interpreter)
    _assert_same(cached, interp, f"{workload.name}: between block-cache "
                 "and interpreter execution", skip=("counters",))


@pytest.mark.parametrize("workload,ablation", _ablation_cases())
def test_fused_execution_is_indistinguishable(workload, ablation):
    """Every block fused from its first execution (not only the hot
    ones), its monitor work inlined, still matches the reference
    interpreter — and closure-only execution, monitor counters
    included — under every monitor ablation."""
    fused = _run_fingerprint(workload, fuse_every_block, ablation=ablation)
    interp = _run_fingerprint(workload, reference_interpreter,
                              ablation=ablation)
    _assert_same(fused, interp, f"{workload.name}/{ablation}: between "
                 "fused-block and interpreter execution", skip=("counters",))
    closures = _run_fingerprint(workload, closure_only, ablation=ablation)
    _assert_same(fused, closures, f"{workload.name}/{ablation}: between "
                 "fused-block and closure-only execution")


@pytest.mark.parametrize("workload,ablation", _ablation_cases())
def test_inlined_monitor_is_indistinguishable(workload, ablation):
    """Monitor work inlined into fused blocks == the same blocks fused
    with the monitor in ``on_block``, counters included."""
    inlined = _run_fingerprint(workload, fuse_every_block, ablation=ablation)

    @contextlib.contextmanager
    def fused_record_path():
        with fuse_every_block(), record_path():
            yield

    records = _run_fingerprint(workload, fused_record_path,
                               ablation=ablation)
    _assert_same(inlined, records, f"{workload.name}/{ablation}: between "
                 "the inlined monitor and the record path")
    production = _run_fingerprint(workload, ablation=ablation)
    _assert_same(production, _run_fingerprint(
        workload, record_path, ablation=ablation),
        f"{workload.name}/{ablation}: between the inlined monitor and the "
        "record path (hot blocks only)")


@contextlib.contextmanager
def _trace_everything():
    """Every block fused at its first execution and tried as a loop
    trace head at its first fused exit."""
    with fuse_every_block(), trace_every_loop():
        yield


@pytest.mark.parametrize("workload,ablation", _ablation_cases())
def test_loop_traces_are_indistinguishable(workload, ablation):
    """Every traceable cycle run as a loop trace from its first fused
    exit matches the reference interpreter, and runs with no trace at
    all (fused or hot blocks only), monitor counters included."""
    traced = _run_fingerprint(workload, _trace_everything,
                              ablation=ablation)
    interp = _run_fingerprint(workload, reference_interpreter,
                              ablation=ablation)
    _assert_same(traced, interp, f"{workload.name}/{ablation}: between "
                 "traced and interpreter execution", skip=("counters",))

    @contextlib.contextmanager
    def fused_untraced():
        with fuse_every_block(), no_traces():
            yield

    _assert_same(traced, _run_fingerprint(
        workload, fused_untraced, ablation=ablation),
        f"{workload.name}/{ablation}: between traced and untraced fused "
        "execution")
    _assert_same(_run_fingerprint(workload, trace_every_loop,
                                  ablation=ablation),
                 _run_fingerprint(workload, no_traces, ablation=ablation),
                 f"{workload.name}/{ablation}: between traced and untraced "
                 "execution (hot blocks only)")


@pytest.mark.parametrize("workload,ablation", _ablation_cases())
def test_inlined_applier_is_indistinguishable(workload, ablation):
    """Every block fused and every traceable cycle traced from the
    start, three ways: the taint applier's steady state inlined into
    the generated code, the applier called at every application
    instead, and the reference interpreter — shadow tags alike, and the
    block counters alike between the first two."""
    inlined = _run_fingerprint(workload, _trace_everything,
                               ablation=ablation)

    @contextlib.contextmanager
    def traced_calls():
        with _trace_everything(), applier_calls():
            yield

    _assert_same(inlined, _run_fingerprint(
        workload, traced_calls, ablation=ablation),
        f"{workload.name}/{ablation}: between the inlined applier steady "
        "state and applier calls")
    _assert_same(inlined, _run_fingerprint(
        workload, reference_interpreter, ablation=ablation),
        f"{workload.name}/{ablation}: between the inlined applier steady "
        "state and the interpreter", skip=("counters",))


@pytest.mark.parametrize("workload", _all_workloads())
def test_fastpath_is_indistinguishable(workload):
    fast = _run_fingerprint(workload)
    slow = _run_fingerprint(workload, oracle=template_replay)
    _assert_same(fast, slow, f"{workload.name}: between summary fast path "
                 "and per-transfer template replay")


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
    # The recorder's own counters exist only when it does.
    for fingerprint in (on, off):
        counters = fingerprint["counters"]
        for key in list(counters):
            if key.startswith("provenance."):
                del counters[key]
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
