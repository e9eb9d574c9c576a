"""ChaosHarness tests: seed derivation, replayability, and stability of a
paper scenario under fault schedules (a small slice of the full
``bench_chaos_stability`` suite, kept cheap for tier-1)."""

import pytest

from repro.core.report import Verdict
from repro.faultinject import (
    SEMANTIC_PROFILE,
    TRANSPARENT_PROFILE,
    chaos_seeds,
    run_chaos,
    run_one,
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


class TestRunOne:
    def test_bit_for_bit_replay(self, elm):
        a = run_one(elm, seed=42)
        b = run_one(elm, seed=42)
        assert [str(f) for f in a.injected_faults] == [
            str(f) for f in b.injected_faults
        ]
        assert a.console_output == b.console_output
        assert a.verdict is b.verdict
        assert sorted(w.rule for w in a.warnings) == sorted(
            w.rule for w in b.warnings
        )

    def test_semantic_profile_degrades_gracefully(self, elm):
        report = run_one(elm, seed=7, profile=SEMANTIC_PROFILE)
        assert report.result.reason != "watchdog"
        assert isinstance(report.verdict, Verdict)


class TestRunChaos:
    def test_exploit_verdict_stable_under_transparent_faults(self, elm):
        result = run_chaos(
            elm, chaos_seeds(1337, 3), profile=TRANSPARENT_PROFILE
        )
        assert result.workload == "ElmExploit"
        assert result.expected is elm.expected_verdict
        assert result.stable
        assert result.failing_seeds() == []
        assert len(result.trials) == 3
        assert all(v is elm.expected_verdict for v in result.verdicts)

    def test_trials_record_replay_evidence(self, elm):
        result = run_chaos(elm, chaos_seeds(1337, 3))
        for trial, seed in zip(result.trials, chaos_seeds(1337, 3)):
            assert trial.seed == seed
            assert trial.reason == "all-exited"
            assert trial.fault_count == len(trial.faults)
        assert result.total_faults == sum(
            t.fault_count for t in result.trials
        )
