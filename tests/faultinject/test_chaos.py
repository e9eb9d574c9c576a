"""ChaosHarness tests: seed derivation, replayability, and stability of a
paper scenario under fault schedules (a small slice of the full
``bench_chaos_stability`` suite, kept cheap for tier-1)."""

import dataclasses

import pytest

from repro.core.report import Verdict
from repro.faultinject import (
    SEMANTIC_PROFILE,
    TRANSPARENT_PROFILE,
    chaos_seeds,
    run_chaos_suite,
)
from repro.programs.exploits import table8_workloads


@pytest.fixture(scope="module")
def elm():
    return next(w for w in table8_workloads() if w.name == "ElmExploit")


class TestChaosSeeds:
    def test_deterministic(self):
        assert chaos_seeds(1337, 10) == chaos_seeds(1337, 10)

    def test_distinct_and_counted(self):
        seeds = chaos_seeds(1337, 25)
        assert len(seeds) == 25
        assert len(set(seeds)) == 25

    def test_first_seed_is_base(self):
        assert chaos_seeds(99, 3)[0] == 99

    def test_non_negative(self):
        assert all(s >= 0 for s in chaos_seeds(2**31 - 1, 10))


def _suite(elm, seed, trials=1, profile=TRANSPARENT_PROFILE):
    (result,) = run_chaos_suite(
        [elm], base_seed=seed, trials=trials, profile=profile
    )
    return result


class TestReplay:
    def test_bit_for_bit_replay(self, elm):
        (a,) = _suite(elm, 42).trials
        (b,) = _suite(elm, 42).trials
        assert a.seed == b.seed == 42
        assert a.faults == b.faults
        assert a.record.report["console_output"] == (
            b.record.report["console_output"]
        )
        assert a.verdict is b.verdict
        assert a.rules == b.rules
        assert sorted(w["rule"] for w in a.record.report["warnings"]) == (
            sorted(w["rule"] for w in b.record.report["warnings"])
        )

    def test_semantic_profile_degrades_gracefully(self, elm):
        (trial,) = _suite(elm, 7, profile=SEMANTIC_PROFILE).trials
        assert trial.reason != "watchdog"
        assert isinstance(trial.verdict, Verdict)


class TestStability:
    def test_exploit_verdict_stable_under_transparent_faults(self, elm):
        result = _suite(elm, 1337, trials=3)
        assert result.workload == "ElmExploit"
        assert result.expected is elm.expected_verdict
        assert result.stable
        assert result.failing_seeds() == []
        assert len(result.trials) == 3
        assert all(v is elm.expected_verdict for v in result.verdicts)

    def test_trials_record_replay_evidence(self, elm):
        result = _suite(elm, 1337, trials=3)
        for trial, seed in zip(result.trials, chaos_seeds(1337, 3)):
            assert trial.seed == seed
            assert trial.reason == "all-exited"
            assert trial.fault_count == len(trial.faults)
            assert trial.faults == trial.record.report["injected_faults"]
        assert result.total_faults == sum(
            t.fault_count for t in result.trials
        )

    def test_rows_outside_the_registry_are_rejected(self, elm):
        stray = dataclasses.replace(elm, name="not-a-row")
        with pytest.raises(LookupError):
            run_chaos_suite([stray], trials=1)
