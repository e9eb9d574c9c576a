"""RunOptions: the one run-configuration object.

It configures a run; it never selects an implementation.  The old
``block_cache`` / ``taint_fastpath`` / ``rete`` switches to reference
implementations are gone (the references live in ``tests/oracles``),
and so is every second way to set a run's policy, monitor config,
fault schedule, provenance switch or budget.
"""

import dataclasses
import pickle

import pytest

import repro
from repro.api import Session
from repro.cache.store import bypass_reason
from repro.core.hth import HTH
from repro.core.options import DEFAULT_MAX_TICKS, RunOptions
from repro.harrier.config import HarrierConfig
from repro.isa import assemble
from repro.programs.registry import get

SOURCE = """
main:
    mov eax, 0
    ret
"""


def _image():
    return assemble("/bin/t", SOURCE)


class TestRunOptions:
    def test_defaults(self):
        options = RunOptions()
        assert options.provenance is True
        assert options.max_ticks == DEFAULT_MAX_TICKS
        assert options.wall_timeout is None
        assert not options.wants_telemetry

    def test_frozen(self):
        with pytest.raises(Exception):
            RunOptions().metrics = True

    def test_picklable(self):
        from repro.faultinject import TRANSPARENT_PROFILE

        options = RunOptions(
            metrics=True, fault_profile=TRANSPARENT_PROFILE, fault_seed=7
        )
        clone = pickle.loads(pickle.dumps(options))
        assert clone == options

    def test_replaced_and_with_faults(self):
        from repro.faultinject import TRANSPARENT_PROFILE

        base = RunOptions()
        assert base.replaced(metrics=True).metrics is True
        assert base.replaced(metrics=True) != base
        chaotic = base.with_faults(TRANSPARENT_PROFILE, 42)
        assert chaotic.fault_profile is TRANSPARENT_PROFILE
        assert chaotic.fault_seed == 42

    def test_make_telemetry_off_by_default(self):
        assert RunOptions().make_telemetry() is None

    def test_make_telemetry_flags(self):
        hub = RunOptions(metrics=True).make_telemetry()
        assert hub.is_enabled
        assert hub.tracer is None
        hub = RunOptions(trace=True).make_telemetry()
        assert hub.tracer is not None

    def test_make_fault_injector_fresh_per_call(self):
        from repro.faultinject import TRANSPARENT_PROFILE

        options = RunOptions(
            fault_profile=TRANSPARENT_PROFILE, fault_seed=3
        )
        a, b = options.make_fault_injector(), options.make_fault_injector()
        assert a is not None and b is not None
        assert a is not b
        assert RunOptions().make_fault_injector() is None


class TestLegacyKwargsRemoved:
    def test_hth_rejects_legacy_kwarg(self):
        with pytest.raises(TypeError):
            HTH(block_cache=False)

    @pytest.mark.parametrize(
        "kwarg", ["policy", "harrier_config", "fault_injector",
                  "install_stubs"]
    )
    def test_hth_rejects_removed_config_kwarg(self, kwarg):
        with pytest.raises(TypeError):
            HTH(**{kwarg: None})

    def test_hth_run_takes_no_wall_timeout(self):
        with pytest.raises(TypeError):
            HTH().run(_image(), wall_timeout=1.0)

    def test_run_monitored_is_gone(self):
        assert not hasattr(repro, "run_monitored")
        assert not hasattr(repro.core, "run_monitored")
        assert not hasattr(repro.core.hth, "run_monitored")

    def test_harrier_config_has_no_provenance_field(self):
        assert "provenance" not in {
            f.name for f in dataclasses.fields(HarrierConfig)
        }

    @pytest.mark.parametrize(
        "method,kwarg",
        [("build_machine", "policy"), ("build_machine", "harrier_config"),
         ("build_machine", "fault_injector"), ("run", "policy"),
         ("run", "fault_injector")],
    )
    def test_workload_rejects_removed_kwarg(self, method, kwarg):
        with pytest.raises(TypeError):
            getattr(get("ElmExploit"), method)(**{kwarg: None})

    @pytest.mark.parametrize("method", ["machine", "run_workload"])
    def test_session_takes_no_fault_injector(self, method):
        args = () if method == "machine" else (get("ElmExploit"),)
        with pytest.raises(TypeError):
            getattr(Session(), method)(*args, fault_injector=None)

    def test_bypass_reason_takes_no_fault_injector(self):
        with pytest.raises(TypeError):
            bypass_reason(RunOptions(), fault_injector=None)

    @pytest.mark.parametrize(
        "switch", ["block_cache", "taint_fastpath", "rete"]
    )
    def test_run_options_have_no_engine_switches(self, switch):
        assert switch not in {f.name for f in dataclasses.fields(RunOptions)}
        with pytest.raises(TypeError):
            RunOptions(**{switch: True})

    def test_hth_run_budgets_default_from_options(self):
        spin = assemble("/bin/spin", "main:\nloop:\n    jmp loop\n")
        report = HTH(options=RunOptions(max_ticks=10)).run(spin)
        assert report.result.reason == "max-ticks"
        assert report.result.ticks <= 10


class TestOneBudget:
    """A registry row runs under the tick budget its options carry,
    which is also what serve admission charges it."""

    def test_session_run_workload_obeys_options_max_ticks(self):
        report = Session().run_workload(
            get("ElmExploit"), options=RunOptions(max_ticks=10)
        )
        assert report.result.reason == "max-ticks"
        assert report.result.ticks == 10

    def test_serve_registry_submission_obeys_options_max_ticks(self):
        from repro.serve.protocol import Submission
        from repro.serve.worker import execute_submission

        submission = Submission(
            workload=("8", "ElmExploit"), options=RunOptions(max_ticks=10)
        )
        report, _, _ = execute_submission(Session(), submission)
        assert report.result.reason == "max-ticks"
        assert report.result.ticks == 10

    def test_caller_options_beat_the_row_harrier_config(self):
        row = get("mw2.2.1")
        assert row.harrier_config is not None
        assert row.build_machine().harrier.config is row.harrier_config
        mine = HarrierConfig(track_bb_frequency=False)
        hth = row.build_machine(options=RunOptions(harrier_config=mine))
        assert hth.harrier.config is mine
