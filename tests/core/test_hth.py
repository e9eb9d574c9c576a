"""HTH facade and report tests."""

from repro import api
from repro.core import HTH, RunReport, Verdict
from repro.core.hth import STANDARD_BINARIES
from repro.isa import assemble
from repro.secpert.warnings import Severity


HELLO = """
main:
    mov ebx, msg
    call print
    mov eax, 0
    ret
.data
msg: .asciz "hello"
"""

EVIL = """
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


class TestFacade:
    def test_run_returns_report(self):
        report = HTH().run(assemble("/bin/hello", HELLO))
        assert isinstance(report, RunReport)
        assert report.console_output == "hello"
        assert report.exit_code == 0
        assert report.verdict is Verdict.BENIGN
        assert not report.flagged

    def test_standard_binaries_registered(self):
        hth = HTH()
        for path in STANDARD_BINARIES:
            assert path in hth.kernel.binaries

    def test_provide_input(self):
        src = """
main:
    mov ebx, 0
    mov ecx, buf
    mov edx, 16
    call read
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    call write
    mov eax, 0
    ret
.data
buf: .space 16
"""
        hth = HTH()
        hth.provide_input("typed\n")
        report = hth.run(assemble("/bin/t", src))
        assert report.console_output == "typed\n"

    def test_hosts_file_written_before_run(self):
        hth = HTH()
        hth.network.register_host("known.example")
        hth.run(assemble("/bin/t", "main:\n  mov eax, 0\n  ret"))
        assert "known.example" in hth.fs.read_text("/etc/hosts")

    def test_unmonitored_mode_produces_no_events(self):
        hth = HTH(monitored=False)
        report = hth.run(assemble("/bin/evil", EVIL))
        assert report.events == ()
        assert report.warnings == ()


class TestOneShotRun:
    def test_one_shot_helper(self):
        report = api.run(assemble("/bin/evil", EVIL))
        assert report.verdict is Verdict.LOW

    def test_setup_callback(self):
        seen = []
        api.run(
            assemble("/bin/hello", HELLO),
            setup=lambda hth: seen.append(hth),
        )
        assert len(seen) == 1 and isinstance(seen[0], HTH)


class TestRunReport:
    def make_report(self, severities):
        from repro.kernel.kernel import RunResult
        from repro.secpert.warnings import SecurityWarning

        return RunReport(
            program="/bin/t",
            argv=["/bin/t"],
            result=RunResult("all-exited", 10, 10),
            warnings=[
                SecurityWarning(severity=s, rule=f"r{i}", headline="h")
                for i, s in enumerate(severities)
            ],
            events=[],
            console_output="",
            exit_code=0,
        )

    def test_verdict_mapping(self):
        assert self.make_report([]).verdict is Verdict.BENIGN
        assert self.make_report([Severity.LOW]).verdict is Verdict.LOW
        assert (
            self.make_report([Severity.LOW, Severity.HIGH]).verdict
            is Verdict.HIGH
        )

    def test_counts(self):
        report = self.make_report([Severity.LOW, Severity.LOW,
                                   Severity.MEDIUM])
        assert report.warning_counts() == {"LOW": 2, "MEDIUM": 1, "HIGH": 0}

    def test_summary_line(self):
        report = self.make_report([Severity.HIGH])
        line = report.summary_line()
        assert "verdict=high" in line
        assert "HIGH=1" in line

    def test_verdict_flagged_property(self):
        assert not Verdict.BENIGN.flagged
        assert Verdict.LOW.flagged
        assert Verdict.from_severity(None) is Verdict.BENIGN
        assert Verdict.from_severity(Severity.MEDIUM) is Verdict.MEDIUM

    def test_warnings_by_rule(self):
        report = self.make_report([Severity.LOW, Severity.HIGH])
        assert len(report.warnings_by_rule("r0")) == 1
