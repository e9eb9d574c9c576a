"""Baseline tests: stide detector mechanics and the single-taint-bit
ablation (the paper's section 5.1 argument)."""

from repro.baselines import (
    StideDetector,
    evaluate_single_bit,
    evaluate_stide,
    is_tainted,
    record_trace,
)
from repro.programs.micro.execflow import table4_workloads
from repro.programs.micro.infoflow import table6_workloads
from repro.programs.trusted import table7_workloads
from repro.taint import DataSource, TagSet


class TestStideDetector:
    def test_trained_trace_scores_zero(self):
        detector = StideDetector(window=3)
        trace = ["open", "read", "write", "close"]
        detector.train(trace)
        assert detector.score(trace) == 0.0
        assert not detector.is_anomalous(trace)

    def test_novel_trace_scores_high(self):
        detector = StideDetector(window=3)
        detector.train(["open", "read", "close"])
        score = detector.score(["fork", "fork", "fork", "execve"])
        assert score == 1.0
        assert detector.is_anomalous(["fork", "fork", "fork", "execve"])

    def test_partial_overlap_partial_score(self):
        detector = StideDetector(window=2)
        detector.train(["a", "b", "c"])
        # windows: (a,b) seen, (b,x) unseen
        assert detector.score(["a", "b", "x"]) == 0.5

    def test_short_trace_uses_whole_trace(self):
        detector = StideDetector(window=10)
        detector.train(["a", "b"])
        assert detector.score(["a", "b"]) == 0.0
        assert detector.score(["c"]) == 1.0

    def test_empty_trace_scores_zero(self):
        assert StideDetector().score([]) == 0.0

    def test_database_size_grows(self):
        detector = StideDetector(window=2)
        detector.train(["a", "b", "c"])
        assert detector.database_size == 2


class TestTraceRecorder:
    def test_trace_for_trusted_tool(self):
        ls = table7_workloads()[0]
        trace = record_trace(ls)
        assert trace[0] == "SYS_open"
        assert "SYS_exit" in trace

    def test_stide_on_workloads(self):
        # train on ls+column; a fork bomb's trace should look anomalous
        from repro.programs.micro.resource import table5_workloads

        trusted = table7_workloads()[:2]
        tree_forker = table5_workloads()[1]
        results = evaluate_stide(
            trusted,
            [(trusted[0], False), (tree_forker, True)],
            window=4,
        )
        by_name = {r.name: r for r in results}
        assert not by_name["ls"].flagged
        assert by_name["tree forker"].flagged
        assert by_name["tree forker"].score > by_name["ls"].score


class TestSingleBit:
    def test_is_tainted(self):
        assert is_tainted(TagSet.of(DataSource.USER_INPUT))
        assert is_tainted(TagSet.of(DataSource.FILE, "/f"))
        assert not is_tainted(TagSet.of(DataSource.BINARY, "/app"))
        assert not is_tainted(TagSet.empty())

    def test_single_bit_inverts_hth_on_hardcoded_execve(self):
        """The paper's core claim: one bit cannot recognize hardcoded
        identifiers.  The Trojan-style hardcoded execve is invisible to
        the single bit, while the benign user-named execve gets flagged."""
        workloads = {w.name: w for w in table4_workloads()}
        results = {
            r.name: r
            for r in evaluate_single_bit(
                [workloads["User input"], workloads["Hardcode"]]
            )
        }
        assert results["Hardcode"].flagged is False      # missed Trojan
        assert results["User input"].flagged is True     # false positive
        assert all(not r.correct for r in results.values())
        assert all(r.hth_correct for r in results.values())

    def test_hth_beats_single_bit_on_table6(self):
        from repro.baselines import accuracy, hth_accuracy

        results = evaluate_single_bit(table6_workloads()[:8])
        assert hth_accuracy(results) == 1.0
        assert accuracy(results) < hth_accuracy(results)
