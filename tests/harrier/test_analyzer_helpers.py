"""Small-surface tests: analyzer helpers, decision policies, monitor-only
operation."""

from repro.core.hth import HTH
from repro.harrier import EventAnalyzer, always_continue
from repro.isa import assemble


class CollectingAnalyzer(EventAnalyzer):
    """Keeps every event and raises no warnings."""

    def __init__(self):
        self.events = []

    def analyze(self, event):
        self.events.append(event)
        return ()


def always_kill(warning):
    """The decision policy that kills the process on any warning."""
    return False


class TestDecisionPolicies:
    def test_always_continue(self):
        assert always_continue(object()) is True

    def test_always_kill(self):
        assert always_kill(object()) is False


class TestCollectingAnalyzer:
    def test_collects_events_without_warnings(self):
        analyzer = CollectingAnalyzer()
        hth = HTH(analyzer=analyzer)
        source = r"""
main:
    mov ebx, path
    mov ecx, 0
    call open
    mov eax, 0
    ret
.data
path: .asciz "/missing"
"""
        report = hth.run(assemble("/bin/t", source))
        assert analyzer.events  # saw the open
        assert report.warnings == ()  # collector raises nothing

    def test_base_analyzer_is_silent(self):
        analyzer = EventAnalyzer()
        assert analyzer.analyze(object()) == ()


class TestBenignSummary:
    def test_summary_line_without_warnings(self):
        hth = HTH()
        report = hth.run(
            assemble("/bin/quiet", "main:\n  mov eax, 0\n  ret")
        )
        line = report.summary_line()
        assert line == "/bin/quiet: verdict=benign"
