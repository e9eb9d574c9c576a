"""Secpert integration-level tests: fact conversion, warning sink,
explanations, paper-format rendering."""

from repro.harrier.events import (
    DataTransferEvent,
    ProcessEvent,
    ResourceAccessEvent,
    ResourceId,
    SecurityEvent,
)
from repro.kernel.process import ResourceKind
from repro.secpert import (
    DATA_TRANSFER,
    PROCESS_CREATED,
    SYSTEM_CALL_ACCESS,
    Secpert,
    SecurityWarning,
    Severity,
    WarningSink,
    fact_of,
    policy_resource_type,
)
from repro.taint import DataSource, TagSet

BIN = TagSet.of(DataSource.BINARY, "/home/evil/a.out")


def access_event():
    return ResourceAccessEvent(
        pid=1, time=5, frequency=1, address="1000",
        call_name="SYS_execve",
        resource=ResourceId(ResourceKind.FILE, "/bin/ls"),
        origin=BIN,
    )


class TestFactConversion:
    def test_access_event_fact(self):
        event = access_event()
        fact = fact_of(event)
        assert fact.template is SYSTEM_CALL_ACCESS
        assert fact.record is event  # read in place, never copied
        assert fact["system_call_name"] == "SYS_execve"
        assert fact["resource_name"] == "/bin/ls"
        assert fact["resource_origin"] == BIN

    def test_transfer_event_fact(self):
        event = DataTransferEvent(
            pid=1, time=5, frequency=1, address="0",
            call_name="SYS_write", direction="write",
            resource=ResourceId(ResourceKind.FIFO, "pipe"),
            data_tags=BIN, resource_origin=BIN, length=3,
        )
        fact = fact_of(event)
        assert fact.template is DATA_TRANSFER
        assert fact["resource_type"] == "FILE"  # FIFO folds into FILE

    def test_process_event_fact(self):
        event = ProcessEvent(
            pid=1, time=5, frequency=1, address="0",
            call_name="SYS_clone", total_created=4, recent_created=2,
            window=100,
        )
        fact = fact_of(event)
        assert fact.template is PROCESS_CREATED
        assert fact["total"] == 4

    def test_unknown_event_gives_none(self):
        event = SecurityEvent(pid=1, time=0, frequency=1, address="0",
                              call_name="x")
        assert fact_of(event) is None

    def test_policy_resource_type(self):
        assert policy_resource_type(ResourceKind.FILE) == "FILE"
        assert policy_resource_type(ResourceKind.DIRECTORY) == "FILE"
        assert policy_resource_type(ResourceKind.SOCKET) == "SOCKET"
        assert policy_resource_type(ResourceKind.CONSOLE) == "CONSOLE"


class TestSecpertLifecycle:
    def test_facts_are_ephemeral(self):
        secpert = Secpert()
        secpert.analyze(access_event())
        assert secpert.engine.facts() == []

    def test_warnings_accumulate_across_events(self):
        secpert = Secpert()
        secpert.analyze(access_event())
        secpert.analyze(access_event())
        assert len(secpert.warnings) == 2

    def test_warning_carries_event(self):
        secpert = Secpert()
        event = access_event()
        warnings = secpert.analyze(event)
        assert warnings[0].event is event

    def test_explanations_trace_rules(self):
        secpert = Secpert()
        secpert.analyze(access_event())
        trace = secpert.engine.fire_trace
        assert [t.rule_name for t in trace] == ["check_execve"]

    def test_render_warnings_paper_format(self):
        secpert = Secpert()
        secpert.analyze(access_event())
        text = secpert.render_warnings()
        assert text.startswith('Warning [LOW] Found SYS_execve call ("/bin/ls")')
        assert 'originated from ("/home/evil/a.out")' in text

    def test_none_fact_event_ignored(self):
        secpert = Secpert()
        event = SecurityEvent(pid=1, time=0, frequency=1, address="0",
                              call_name="x")
        assert secpert.analyze(event) == ()


class TestSharedMatching:
    """Rules built on one Pattern object share one Rete join node."""

    def _nodes(self, secpert, template):
        return [node for node in secpert.engine._rete._nodes.values()
                if node.pattern.template == template]

    def test_info_flow_rules_feed_one_join(self):
        secpert = Secpert()
        (write,) = self._nodes(secpert, "data_transfer")
        assert sorted(target.rule.name for _, target in write.edges) == [
            "check_binary_flow",
            "check_executable_download",
            "check_hardware_flow",
            "check_resource_flow",
            "check_user_input_flow",
        ]

    def test_benign_write_creates_no_beta_token(self):
        secpert = Secpert()
        event = DataTransferEvent(
            pid=1, time=5, frequency=1, address="0",
            call_name="SYS_write", direction="write",
            resource=ResourceId(ResourceKind.FILE, "/tmp/log"), length=3,
        )
        before = secpert.engine.stats.beta_tokens_created
        assert secpert.analyze(event) == []
        assert secpert.engine.stats.beta_tokens_created == before

    def test_memory_rules_share_one_join(self):
        (memory,) = self._nodes(Secpert(), "memory_usage")
        assert sorted(target.rule.name for _, target in memory.edges) == [
            "check_memory_abuse", "check_memory_usage",
        ]


class TestWarningSink:
    def warning(self, severity, rule="r"):
        return SecurityWarning(severity=severity, rule=rule, headline="h")

    def test_counts_and_max(self):
        sink = WarningSink()
        sink.add(self.warning(Severity.LOW))
        sink.add(self.warning(Severity.HIGH))
        sink.add(self.warning(Severity.LOW))
        assert sink.counts() == {"LOW": 2, "MEDIUM": 0, "HIGH": 1}
        assert sink.max_severity() is Severity.HIGH
        assert len(sink) == 3

    def test_empty_sink(self):
        sink = WarningSink()
        assert sink.max_severity() is None
        assert list(sink) == []

    def test_render_all(self):
        sink = WarningSink()
        sink.add(self.warning(Severity.MEDIUM))
        assert "Warning [MEDIUM] h" in sink.render_all()

    def test_severity_labels(self):
        assert Severity.LOW.label() == "LOW"
        assert Severity.MEDIUM.label() == "MEDIUM"
        assert Severity.HIGH.label() == "HIGH"
        assert Severity.HIGH > Severity.LOW


class TestExplain:
    def test_explanation_contains_fact_rule_and_advice(self):
        secpert = Secpert()
        event = access_event()
        (warning,) = secpert.analyze(event)
        text = secpert.explain(warning)
        assert "CLIPS> (assert (system_call_access" in text
        assert "(system_call_name SYS_execve)" in text
        assert "FIRE check_execve" in text
        assert "Warning [LOW]" in text

    def test_explanation_without_event(self):
        secpert = Secpert()
        warning = SecurityWarning(
            severity=Severity.LOW, rule="check_execve", headline="h"
        )
        text = secpert.explain(warning)
        assert "FIRE check_execve" in text
