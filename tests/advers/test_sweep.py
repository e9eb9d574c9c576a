"""The adversarial sweep: planning, scoring, determinism, and the
filed-evasion contract of the adversarial registry."""

import json
from unittest import mock

import pytest

from repro.advers import (
    SEVERITY,
    PlannedVariant,
    default_parents,
    plan_sweep,
    run_sweep,
)
from repro.api import Session, sweep
from repro.cli import main
from repro.isa.assembler import Assembler
from repro.programs.mutate import MUTATION_CLASSES
from repro.programs.registry import registry_workloads


class TestPlanning:
    def test_default_parents_are_all_trojans(self):
        parents = default_parents()
        assert len(parents) >= 17
        assert "superforker" in parents and "pma" in parents
        assert "ls" not in parents  # trusted rows contribute nothing

    def test_grid_shape_and_refs(self):
        plan = plan_sweep(
            parents=["Hardcode", "grabem"], per_class=3, seed=10
        )
        assert len(plan) == 2 * len(MUTATION_CLASSES) * 3
        first = plan[0]
        assert isinstance(first, PlannedVariant)
        assert first.ref.module == "repro.programs.mutate"
        assert first.ref.params == ("Hardcode", "rename-labels", 10)
        # Every ref resolves to a workload named like the ref.
        resolved = first.ref.resolve()
        assert resolved.name == first.ref.name
        assert resolved.expected_verdict.value == first.expected_verdict

    def test_seeds_advance_within_a_class(self):
        plan = plan_sweep(parents=["Hardcode"],
                          classes=["deadcode"], per_class=4, seed=2)
        assert [p.seed for p in plan] == [2, 3, 4, 5]

    def test_bad_inputs_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown mutation class"):
            plan_sweep(parents=["Hardcode"], classes=["nope"])
        with pytest.raises(LookupError):
            plan_sweep(parents=["not a row"])

    @pytest.mark.parametrize("per_class", [0, -3])
    def test_empty_grid_rejected(self, per_class):
        # An empty sweep would report a vacuous 100% detection rate.
        with pytest.raises(ValueError, match="per_class must be >= 1"):
            plan_sweep(parents=["superforker"], per_class=per_class)

    @pytest.mark.parametrize("per_class", ["0", "-3"])
    def test_cli_empty_grid_is_a_usage_error(self, per_class, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--parent", "superforker",
                  "--per-class", per_class, "--fail-under", "1.0"])
        assert exc.value.code == 2
        assert "per_class must be >= 1" in capsys.readouterr().err

    def test_severity_order_is_total(self):
        assert SEVERITY["benign"] < SEVERITY["low"] \
            < SEVERITY["medium"] < SEVERITY["high"]


class TestSweepExecution:
    def _sweep(self, **kwargs):
        kwargs.setdefault("parents", ["Hardcode", "tree forker"])
        kwargs.setdefault("classes", ["rename-labels", "deadcode"])
        kwargs.setdefault("per_class", 2)
        kwargs.setdefault("seed", 1)
        kwargs.setdefault("workers", 1)
        return run_sweep(**kwargs)

    def test_matrix_counts_and_rates(self):
        result = self._sweep()
        assert result.total == 8
        assert set(result.matrix) == {"rename-labels", "deadcode"}
        for cell in result.matrix.values():
            assert cell["total"] == 4
            assert cell["completed"] == 4
            assert cell["errors"] == 0
            assert cell["trojans"] == 4  # both parents are Trojans
        assert result.detection_rate == 1.0
        assert result.exact_rate == 1.0
        assert result.evasions == []

    def test_payload_is_deterministic_across_runs(self):
        a = self._sweep().to_json()
        b = self._sweep(workers=2, shard_by="interleave").to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["config"]["variants"] == 8
        assert payload["benchmark"] == "adversarial_sweep"

    def test_parent_process_does_no_variant_work(self):
        # Workers resolve, mutate and assemble their own variants; the
        # parent only plans refs and scores records.
        calls = []
        real = Assembler.assemble

        def counting(self, *args, **kwargs):
            calls.append(self)  # fork-started workers count their own
            return real(self, *args, **kwargs)

        with mock.patch.object(Assembler, "assemble", counting):
            result = run_sweep(
                parents=["Hardcode", "tree forker", "grabem"],
                classes=["rename-labels", "deadcode"], seed=3, workers=2,
            )
        assert result.total == 6 and not result.errors
        assert calls == []

    def test_api_sweep_entry_point(self):
        result = sweep(parents=["Hardcode"], classes=["substitute"],
                       per_class=1, workers=1)
        assert result.total == 1
        assert result.detection_rate == 1.0

    def test_render_report_mentions_the_matrix(self):
        text = self._sweep().render_report()
        assert "detection rate 100.0%" in text
        assert "rename-labels" in text and "deadcode" in text


class TestAdversarialRegistryContract:
    """Filed evasions: fixed rows classify, open (xfail) rows must
    still misclassify — a passing xfail means the fix landed and the
    row needs flipping."""

    def test_rows_split_by_xfail(self):
        rows = {w.name: w for w in registry_workloads("adversarial")}
        assert rows["masquerade libc hardcode"].xfail is False
        assert rows["slow-and-low forker"].xfail is True

    def test_fixed_rows_classify_exactly(self):
        session = Session()
        for w in registry_workloads("adversarial"):
            if w.xfail:
                continue
            report = session.run_workload(w)
            assert w.classified_correctly(report), (
                f"regression: {w.name} no longer classifies as "
                f"{w.expected_verdict.value}"
            )

    def test_open_rows_still_misclassify(self):
        session = Session()
        for w in registry_workloads("adversarial"):
            if not w.xfail:
                continue
            report = session.run_workload(w)
            assert not w.classified_correctly(report), (
                f"{w.name} now classifies correctly — its fix landed; "
                f"flip xfail=False to make it a regression row"
            )

    def test_slow_and_low_evades_only_the_rate_rule(self):
        from repro.programs.registry import get

        report = Session().run_workload(get("slow-and-low forker"))
        fired = {w.rule for w in report.warnings}
        assert "check_clone_count" in fired  # count rule still trips
        assert "check_clone_rate" not in fired  # the evasion
        assert report.verdict.value == "low"


class TestMasqueradeRegression:
    """The rename-paths evasion that produced Secpert.distrust: a
    Trojan installed under a trusted name must not inherit its trust."""

    def test_masquerade_as_every_trusted_name_still_detected(self):
        from dataclasses import replace

        from repro.programs.registry import get
        from repro.secpert.policy import PolicyConfig

        parent = get("masquerade libc hardcode")
        session = Session()
        for trusted in sorted(PolicyConfig().trusted_binaries):
            w = replace(
                parent,
                name=f"masquerade as {trusted}",
                program_path=trusted,
                argv=None,
            )
            report = session.run_workload(w)
            assert w.classified_correctly(report), (
                f"masquerading as {trusted} evaded check_execve"
            )

    def test_distrust_only_affects_the_target_name(self):
        """Trusted libc itself keeps its trust: a benign row linking
        against it stays benign (no new false positives)."""
        from repro.programs.registry import get

        report = Session().run_workload(get("ls"))
        assert report.verdict.value == "benign"
