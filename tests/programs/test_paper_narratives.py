"""Tests pinning the *specific* observations the paper narrates for
individual workloads (beyond the table-level verdicts)."""

from repro.core.report import Verdict
from repro.harrier.config import HarrierConfig
from repro.harrier.events import ResourceAccessEvent
from repro.programs.exploits import table8_workloads
from repro.programs.macro import macro_workloads
from repro.programs.trusted import table7_workloads
from repro.secpert.warnings import Severity
from repro.taint import DataSource


def by_name(workloads, name):
    return next(w for w in workloads if w.name == name)


class TestElmExploit:
    def test_system_execve_filtered_because_libc_trusted(self):
        """Paper 8.3.1: HTH misses the system() send because /bin/sh's
        string lives in trusted libc."""
        report = by_name(table8_workloads(), "ElmExploit").run()
        # the execve event exists in the monitor log...
        execs = [
            e for e in report.events
            if isinstance(e, ResourceAccessEvent)
            and e.call_name == "SYS_execve"
        ]
        assert any(e.resource.name == "/bin/sh" for e in execs)
        sh_event = next(e for e in execs if e.resource.name == "/bin/sh")
        assert "/lib/libc.so" in sh_event.origin.names_for(DataSource.BINARY)
        # ...but no execve warning was issued
        assert report.warnings_by_rule("check_execve") == []
        # while the crafted-email write was caught
        highs = [w for w in report.warnings if w.severity is Severity.HIGH]
        assert any("tmpmail" in w.headline for w in highs)


class TestGrabem:
    def test_complete_tracker_sees_user_source(self):
        """Paper 8.3.4 notes the prototype missed that the logged data was
        USER input; the complete tracker reports it."""
        report = by_name(table8_workloads(), "grabem").run()
        user_warnings = report.warnings_by_rule("check_user_input_flow")
        assert user_warnings
        assert all(w.severity is Severity.HIGH for w in user_warnings)
        assert ".exrc%" in user_warnings[0].headline

    def test_password_lands_in_logfile(self):
        workload = by_name(table8_workloads(), "grabem")
        hth = workload.build_machine()
        hth.run(workload.image(), argv=workload.argv,
                stdin=workload.stdin)
        content = hth.fs.read_text(".exrc%")
        assert "alice hunter2" in content


class TestPma:
    def test_warning_text_includes_server_context(self):
        report = by_name(table8_workloads(), "pma").run()
        texts = [w.render() for w in report.warnings]
        assert any(
            "it is a server with the address: LocalHost:11116" in t
            for t in texts
        )
        assert any("inpipe" in t for t in texts)
        assert any("outpipe" in t for t in texts)
        # all pma warnings are High, as in the paper's output
        assert all(w.severity is Severity.HIGH for w in report.warnings)


class TestSuperforker:
    def test_warning_progression_low_then_medium(self):
        report = by_name(table8_workloads(), "superforker").run()
        count_warnings = report.warnings_by_rule("check_clone_count")
        rate_warnings = report.warnings_by_rule("check_clone_rate")
        assert count_warnings and rate_warnings
        assert count_warnings[0].severity is Severity.LOW
        assert rate_warnings[0].severity is Severity.MEDIUM

    def test_random_filenames_carry_binary_taint(self):
        report = by_name(table8_workloads(), "superforker").run()
        file_warnings = report.warnings_by_rule("check_binary_to_file")
        assert file_warnings
        assert any(".." in w.headline for w in file_warnings)


class TestPicoCompatMode:
    def test_incomplete_prototype_reproduces_paper_false_positive(self):
        """Paper 8.2.6: the prototype wrongly reported pico HIGH because
        console input was mis-attributed to the binary.  Our compat mode
        reproduces that exact artifact."""
        workload = by_name(table7_workloads(), "pico")
        report = workload.run(
            harrier_config=HarrierConfig(complete_dataflow=False)
        )
        assert report.verdict is Verdict.HIGH
        texts = [w.render() for w in report.warnings]
        assert any("/usr/bin/pico" in t for t in texts)

    def test_complete_tracker_avoids_it(self):
        workload = by_name(table7_workloads(), "pico")
        assert workload.run().verdict is Verdict.BENIGN


class TestMake:
    def test_g_plus_plus_origin_mixes_user_and_binary(self):
        """Paper 8.2.3: make's g++ path is 'hardcoded as well as
        originated from the user' (PATH env)."""
        report = by_name(table7_workloads(), "make").run()
        execs = [
            e for e in report.events
            if isinstance(e, ResourceAccessEvent)
            and e.call_name == "SYS_execve"
            and "g++" in e.resource.name
        ]
        assert execs
        origin = execs[0].origin
        assert origin.has_source(DataSource.USER_INPUT)
        assert "/usr/bin/make" in origin.names_for(DataSource.BINARY)


class TestTicTacToeTrojan:
    def test_dropped_file_executes_with_enoexec(self):
        workload = by_name(macro_workloads(), "uttt-trojan")
        hth = workload.build_machine()
        report = hth.run(workload.image(), argv=workload.argv,
                         stdin=workload.stdin)
        # the payload file exists, is executable, and the exec failed
        node = hth.fs.lookup("./malicious_code.txt")
        assert node is not None and node.is_executable()
        assert report.verdict is Verdict.HIGH
        exec_warnings = report.warnings_by_rule("check_execve")
        assert any(
            "malicious_code.txt" in w.headline for w in exec_warnings
        )


class TestPwsafeDeviation:
    def test_complete_tracker_grades_high_not_low(self):
        """Documented deviation: the paper's incomplete prototype graded
        the pwsafe trojan Low with wrong sources; the complete tracker
        sees FILE(hardcoded) -> SOCKET(hardcoded) and grades High."""
        report = by_name(macro_workloads(), "pwunsafe").run()
        assert report.verdict is Verdict.HIGH
        flows = report.warnings_by_rule("check_resource_flow")
        assert any(".pwsafe.dat" in w.render() for w in flows)
        assert any("duero:40400" in w.render() for w in flows)


class TestTcpWrappersRarity:
    def test_backdoor_path_flagged_as_rarely_executed(self):
        """The §7.4 mechanism in action: only the magic-token backdoor
        path — executed once, late in the run — gets the 'rarely
        executed' reinforcement; the hot normal-service path does not."""
        from repro.programs.scenarios import scenario_workloads

        workload = next(
            w for w in scenario_workloads()
            if w.name == "TCP Wrappers Trojan"
        )
        report = workload.run()
        rare = [w for w in report.warnings
                if any("rarely executed" in d for d in w.details)]
        common = [w for w in report.warnings
                  if not any("rarely executed" in d for d in w.details)]
        assert len(rare) == 1
        assert "intruder" in rare[0].render()
        assert len(common) >= 5  # the normal-service responses
