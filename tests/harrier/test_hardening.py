"""Monitor hardening tests: exception containment in ``_dispatch``, the
bounded event log, first-kill veto semantics, and rule quarantine in the
inference engine."""

from repro.core import HTH, Verdict
from repro.expert import InferenceEngine, Pattern, Rule, Template
from repro.harrier import Harrier, HarrierConfig
from repro.harrier.analyzer import EventAnalyzer
from repro.harrier.monitor import MonitorFault
from repro.isa import assemble
from repro.secpert import Secpert


HELLO = """
main:
    mov ebx, msg
    call print
    mov eax, 0
    ret
.data
msg: .asciz "hello"
"""

# execve is always eventful (EXEC_BINARY), so this guest guarantees the
# analyzer actually sees something.
EXEC = """
main:
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 0
    ret
.data
prog: .asciz "/bin/ls"
"""


class CrashingAnalyzer(EventAnalyzer):
    warnings = ()

    def analyze(self, event):
        raise ValueError("analyzer blew up")


class WarnEveryEvent(EventAnalyzer):
    def __init__(self):
        self.seen = []
        self.warnings = []

    def analyze(self, event):
        self.seen.append(event)
        warning = object()
        self.warnings.append(warning)
        return [warning]


class TestAnalyzerContainment:
    def test_crash_is_contained_and_recorded(self):
        h = Harrier(analyzer=CrashingAnalyzer())
        assert h._dispatch(["e1", "e2"]) is True
        assert len(h.monitor_faults) == 2
        fault = h.monitor_faults[0]
        assert isinstance(fault, MonitorFault)
        assert fault.stage == "analyze"
        assert fault.rule == "MONITOR_FAULT"
        assert "ValueError: analyzer blew up" in fault.error
        assert "MONITOR_FAULT/analyze" in fault.render()

    def test_rule_name_attribute_is_surfaced(self):
        class NamedCrash(EventAnalyzer):
            def analyze(self, event):
                exc = RuntimeError("rule died")
                exc.rule_name = "TrojanWrite"
                raise exc

        h = Harrier(analyzer=NamedCrash())
        h._dispatch(["e"])
        assert h.monitor_faults[0].rule == "TrojanWrite"

    def test_run_survives_crashing_analyzer(self):
        hth = HTH(analyzer=CrashingAnalyzer())
        report = hth.run(assemble("/bin/evil", EXEC))
        assert report.result.completed
        assert report.monitor_faults
        # Monitor faults must not move the verdict.
        assert report.verdict is Verdict.BENIGN
        assert report.degraded

    def test_healthy_run_is_not_degraded(self):
        report = HTH().run(assemble("/bin/hello", HELLO))
        assert not report.monitor_faults
        assert not report.degraded


class TestDecisionContainment:
    def test_crashing_decision_defaults_to_continue(self):
        def boom(warning):
            raise RuntimeError("decision crashed")

        analyzer = WarnEveryEvent()
        h = Harrier(analyzer=analyzer, decision=boom)
        assert h._dispatch(["e1", "e2"]) is True
        assert h.kills == []
        assert [f.stage for f in h.monitor_faults] == [
            "decision", "decision"
        ]


class TestFirstKillVeto:
    def test_dispatch_stops_at_first_kill(self):
        analyzer = WarnEveryEvent()
        h = Harrier(analyzer=analyzer, decision=lambda warning: False)
        assert h._dispatch(["e1", "e2", "e3"]) is False
        # The first kill vetoes the syscall; the batch's remaining
        # events describe a call that never executes.
        assert analyzer.seen == ["e1"]
        assert len(h.kills) == 1
        assert h.kills[0][0] == "e1"


class TestBoundedEventLog:
    def test_oldest_events_dropped_at_cap(self):
        h = Harrier(config=HarrierConfig(max_event_log=3))
        h._dispatch(["e1", "e2", "e3", "e4", "e5"])
        assert h.events == ["e3", "e4", "e5"]
        assert h.events_dropped == 2

    def test_zero_cap_drops_everything(self):
        h = Harrier(config=HarrierConfig(max_event_log=0))
        h._dispatch(["e1", "e2"])
        assert h.events == []
        assert h.events_dropped == 2

    def test_default_is_unbounded(self):
        h = Harrier()
        h._dispatch([f"e{i}" for i in range(100)])
        assert len(h.events) == 100
        assert h.events_dropped == 0

    def test_drop_counter_surfaces_in_report(self):
        # open + execve: two eventful syscalls against a one-slot log.
        src = """
main:
    mov ebx, hosts
    mov ecx, 0
    call open
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 0
    ret
.data
hosts: .asciz "/etc/hosts"
prog: .asciz "/bin/ls"
"""
        hth = HTH(harrier_config=HarrierConfig(max_event_log=1))
        report = hth.run(assemble("/bin/evil", src))
        assert len(report.events) <= 1
        assert report.events_dropped > 0
        assert report.degraded


class TestRuleQuarantine:
    def make_engine(self):
        eng = InferenceEngine()
        eng.define_template(Template.define("item", "kind"))
        return eng

    def test_raising_rule_is_quarantined(self):
        eng = self.make_engine()
        fired = []
        eng.add_rule(
            Rule("bad", [Pattern("item")],
                 lambda ctx: (_ for _ in ()).throw(ValueError("boom")))
        )
        eng.add_rule(
            Rule("good", [Pattern("item")], lambda ctx: fired.append(1))
        )
        eng.assert_fact(eng.templates["item"].make(kind="a"))
        eng.run()
        assert "bad" in eng.quarantined
        assert "ValueError: boom" in eng.quarantined["bad"]
        assert fired == [1]

    def test_quarantined_rule_stops_matching(self):
        eng = self.make_engine()
        calls = []
        eng.add_rule(
            Rule("bad", [Pattern("item")],
                 lambda ctx: calls.append(1) or 1 / 0)
        )
        eng.assert_fact(eng.templates["item"].make(kind="a"))
        eng.run()
        eng.assert_fact(eng.templates["item"].make(kind="b"))
        eng.run()
        assert calls == [1]
        assert eng.agenda() == []

    def test_quarantine_survives_reset(self):
        eng = self.make_engine()
        eng.quarantined["bad"] = "ValueError: boom"
        eng.reset()
        assert eng.quarantined == {"bad": "ValueError: boom"}

    def test_secpert_exposes_quarantined_rules(self):
        secpert = Secpert()
        assert secpert.quarantined_rules == []
        secpert.engine.quarantined["SuspectExec"] = "KeyError: 'x'"
        assert secpert.quarantined_rules == ["SuspectExec"]

    def test_quarantined_rules_surface_in_report(self):
        hth = HTH()
        hth.secpert.engine.quarantined["Broken"] = "ValueError: x"
        report = hth.run(assemble("/bin/hello", HELLO))
        assert report.quarantined_rules == ("Broken",)
        assert report.degraded
