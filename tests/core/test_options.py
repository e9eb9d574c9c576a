"""RunOptions: the unified run-configuration object.

It configures a run; it never selects an implementation.  The old
``block_cache`` / ``taint_fastpath`` / ``rete`` switches to reference
implementations are gone from ``RunOptions``, ``HTH`` and
``run_monitored`` alike (the references live in ``tests/oracles``).
"""

import dataclasses
import pickle

import pytest

from repro.core.hth import HTH, run_monitored
from repro.core.options import DEFAULT_MAX_TICKS, RunOptions
from repro.isa import assemble

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

    def test_run_monitored_rejects_legacy_kwarg(self):
        with pytest.raises(TypeError):
            run_monitored(_image(), taint_fastpath=False)

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
