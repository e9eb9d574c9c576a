"""End-to-end classification tests for every evaluation table (paper
Tables 4-8 and section 8.4) — each row must land on the paper's verdict."""

import pytest

from repro.programs.exploits import table8_workloads
from repro.programs.macro import macro_workloads
from repro.programs.micro.execflow import table4_workloads
from repro.programs.micro.infoflow import table6_workloads
from repro.programs.micro.resource import table5_workloads
from repro.programs.trusted import table7_workloads


def _id(workload):
    return workload.name.replace(" ", "_")


def check(workload):
    report = workload.run()
    assert report.result.reason in ("all-exited", "max-ticks"), (
        f"{workload.name}: run ended with {report.result.reason} "
        f"(faults: {report.faults})"
    )
    assert not report.faults, f"{workload.name}: guest faults {report.faults}"
    assert report.verdict is workload.expected_verdict, (
        f"{workload.name}: verdict {report.verdict} != expected "
        f"{workload.expected_verdict}; warnings:\n{report.render_warnings()}"
    )
    fired = {w.rule for w in report.warnings}
    for rule in workload.expected_rules:
        assert rule in fired, (
            f"{workload.name}: expected rule {rule} did not fire "
            f"(fired: {sorted(fired)})"
        )
    return report


@pytest.mark.parametrize("workload", table4_workloads(), ids=_id)
def test_table4_execution_flow(workload):
    check(workload)


@pytest.mark.parametrize("workload", table5_workloads(), ids=_id)
def test_table5_resource_abuse(workload):
    check(workload)


@pytest.mark.parametrize("workload", table6_workloads(), ids=_id)
def test_table6_information_flow(workload):
    check(workload)


@pytest.mark.parametrize("workload", table7_workloads(), ids=_id)
def test_table7_trusted_programs(workload):
    check(workload)


@pytest.mark.parametrize("workload", table8_workloads(), ids=_id)
def test_table8_real_exploits(workload):
    check(workload)


@pytest.mark.parametrize("workload", macro_workloads(), ids=_id)
def test_macro_benchmarks(workload):
    check(workload)


class TestTableShapes:
    def test_table4_has_four_rows(self):
        assert len(table4_workloads()) == 4

    def test_table5_has_two_rows(self):
        assert len(table5_workloads()) == 2

    def test_table6_covers_all_flow_sections(self):
        sections = {w.name.split(":")[0] for w in table6_workloads()}
        assert sections == {
            "Binary -> File",
            "Binary -> Socket",
            "File -> File",
            "File -> socket",
            "Socket -> File",
            "Hardware -> File",
        }

    def test_table7_matches_paper_order(self):
        names = [w.name for w in table7_workloads()]
        assert names == ["ls", "column", "make", "g++", "awk", "pico",
                         "tail", "diff", "wc", "bc", "xeyes"]

    def test_table8_matches_paper_order(self):
        names = [w.name for w in table8_workloads()]
        assert names == ["ElmExploit", "nlspath", "procex", "grabem",
                         "vixie crontab", "pma", "superforker"]

    def test_every_exploit_is_detected(self):
        from repro.core.report import Verdict

        for w in table8_workloads():
            assert w.expected_verdict is not Verdict.BENIGN


# -- section 10 extension workloads ------------------------------------------
from repro.programs.extensions import extension_workloads  # noqa: E402


@pytest.mark.parametrize("workload", extension_workloads(), ids=_id)
def test_extension_workloads(workload):
    check(workload)


# -- section 2.1 scenario analogues (Table 1, live) ---------------------------
from repro.programs.scenarios import (  # noqa: E402
    observe_patterns,
    paper_patterns,
    scenario_workloads,
)


@pytest.mark.parametrize("workload", scenario_workloads(), ids=_id)
def test_scenario_workloads(workload):
    check(workload)


@pytest.mark.parametrize("workload", scenario_workloads(), ids=_id)
def test_scenario_patterns_match_table1(workload):
    observed = observe_patterns(workload)
    claim = paper_patterns()[workload.name]
    assert observed.remotely_directed == claim.remotely_directed
    assert observed.hardcoded_resources == claim.hardcoded_resources
    assert observed.degrading_performance == claim.degrading_performance
    assert observed.verdict == claim.verdict
