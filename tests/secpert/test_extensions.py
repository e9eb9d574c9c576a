"""Tests for the section 10 future-work extensions: memory abuse,
executable-download detection, cross-session monitoring, and
simultaneous-session (multi-program) correlation."""

from repro.core.report import Verdict
from repro.isa import assemble
from repro.programs.extensions import extension_workloads
from repro.secpert.correlation import MultiProgramMonitor
from repro.secpert.sessions import (
    CrossSessionMonitor,
    SessionStore,
)
from repro.secpert.warnings import Severity


def by_name(name):
    return next(w for w in extension_workloads() if w.name == name)


class TestMemoryAbuse:
    def test_vundo_trips_both_thresholds(self):
        report = by_name("vundo").run()
        rules = {w.rule for w in report.warnings}
        assert "check_memory_usage" in rules
        assert "check_memory_abuse" in rules
        assert report.verdict is Verdict.MEDIUM

    def test_modest_allocator_is_benign(self):
        report = by_name("allocator").run()
        assert report.verdict is Verdict.BENIGN

    def test_memory_events_report_totals(self):
        from repro.harrier.events import MemoryEvent

        report = by_name("vundo").run()
        events = [e for e in report.events if isinstance(e, MemoryEvent)]
        assert events
        totals = [e.total_allocated for e in events]
        assert totals == sorted(totals)  # monotone heap growth
        assert totals[-1] >= 60 * 4096

    def test_thresholds_configurable(self):
        from repro.secpert.policy import PolicyConfig

        lax = PolicyConfig(
            memory_low_threshold=10_000_000,
            memory_high_threshold=20_000_000,
        )
        report = by_name("vundo").run(policy=lax)
        assert report.verdict is Verdict.BENIGN


class TestExecutableDownload:
    def test_lodeight_flags_download(self):
        report = by_name("lodeight").run()
        downloads = report.warnings_by_rule("check_executable_download")
        assert downloads
        assert downloads[0].severity is Severity.HIGH
        assert "/tmp/.svchost" in downloads[0].headline
        assert any(
            "downloaded from the network" in d for d in downloads[0].details
        )

    def test_text_download_not_flagged_as_executable(self):
        # the Table 6 socket->file benchmarks move *text* payloads; none
        # of them fire the executable-download rule
        from repro.programs.micro.infoflow import table6_workloads

        socket_rows = [
            w for w in table6_workloads() if w.name.startswith("Socket")
        ]
        for workload in socket_rows:
            report = workload.run()
            assert report.warnings_by_rule("check_executable_download") == []

    def test_sniffer(self):
        from repro.harrier.content import sniff_content

        assert sniff_content(b"\x7fEXE...") == "executable"
        assert sniff_content(b"\x7fELF\x02") == "executable"
        assert sniff_content(b"MZ\x90") == "executable"
        assert sniff_content(b"#!/bin/sh\n") == "script"
        assert sniff_content(b"hello world\n") == "text"
        assert sniff_content(b"\x00\x01\x02") == "binary"
        assert sniff_content(b"") == "empty"


TWO_STAGE_SOURCE = r"""
main:
    mov ebx, dropfile
    mov ecx, 0
    call open
    cmp eax, 0
    jl stage1
    mov ebx, eax
    call close
    mov ebx, dropfile
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 0
    ret
stage1:
    mov ebx, dropfile
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, payload
    call fputs
    mov ebx, esi
    call close
    mov eax, 0
    ret
.data
dropfile: .asciz "/tmp/.stage2"
payload: .asciz "stage two payload"
"""


class TestCrossSession:
    def make_monitor(self):
        monitor = CrossSessionMonitor()
        image = assemble("/home/user/twostage", TWO_STAGE_SOURCE)
        monitor.hth.register_binary(image)
        return monitor, image

    def test_first_session_deferred_to_low(self):
        monitor, image = self.make_monitor()
        s1 = monitor.run_session(image)
        assert s1.verdict is Verdict.LOW
        assert [w.rule for w in s1.warnings] == [
            "check_binary_to_file:deferred"
        ]
        assert any(
            "Cross-session tracking" in d
            for d in s1.warnings[0].details
        )

    def test_second_session_escalates_to_high(self):
        monitor, image = self.make_monitor()
        monitor.run_session(image)
        s2 = monitor.run_session("/home/user/twostage")
        assert s2.verdict is Verdict.HIGH
        uses = [w for w in s2.warnings
                if w.rule == "check_cross_session_use"]
        assert uses
        assert any("SYS_execve" in w.headline for w in uses)
        assert any("session 1" in d for w in uses for d in w.details)

    def test_same_session_use_not_escalated(self):
        # drop + use within ONE session falls back to the normal rules
        monitor = CrossSessionMonitor()
        combined = assemble(
            "/home/user/onestage",
            r"""
main:
    mov ebx, dropfile
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, payload
    call fputs
    mov ebx, esi
    call close
    mov ebx, dropfile
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 0
    ret
.data
dropfile: .asciz "/tmp/.now"
payload: .asciz "x"
""",
        )
        s1 = monitor.run_session(combined)
        assert not [w for w in s1.warnings
                    if w.rule == "check_cross_session_use"]

    def test_store_session_accounting(self):
        store = SessionStore()
        assert store.begin_session("/p") == 1
        store.record_drop("/p", "/tmp/a")
        assert store.dropped_in_earlier_session("/p", "/tmp/a") is None
        assert store.begin_session("/p") == 2
        assert store.dropped_in_earlier_session("/p", "/tmp/a") == 1
        assert store.dropped_in_earlier_session("/p", "/tmp/b") is None
        assert store.dropped_in_earlier_session("/other", "/tmp/a") is None

    def test_sessions_list_accumulates(self):
        monitor, image = self.make_monitor()
        monitor.run_session(image)
        monitor.run_session("/home/user/twostage")
        assert [s.session for s in monitor.sessions] == [1, 2]


DROPPER_SOURCE = r"""
main:
    mov ebp, esp
    load eax, [ebp+2]
    load ebx, [eax+1]
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, payload
    call fputs
    mov ebx, esi
    call close
    mov eax, 0
    ret
.data
payload: .asciz "innocuous content"
"""

LAUNCHER_SOURCE = r"""
main:
    mov ebp, esp
    mov ebx, 2000
    call sleep
    load eax, [ebp+2]
    load ebx, [eax+1]
    mov ecx, 0x1ed
    call chmod
    load eax, [ebp+2]
    load ebx, [eax+1]
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 0
    ret
"""


class TestMultiProgram:
    def run_pair(self, same_group=False):
        monitor = MultiProgramMonitor()
        dropper = assemble("/opt/dropper", DROPPER_SOURCE)
        launcher = assemble("/opt/launcher", LAUNCHER_SOURCE)
        group = {"group": "suite"} if same_group else {}
        monitor.spawn(dropper, argv=["/opt/dropper", "/tmp/part2"], **group)
        monitor.spawn(launcher, argv=["/opt/launcher", "/tmp/part2"],
                      **group)
        result = monitor.run()
        assert result.reason == "all-exited"
        return monitor

    def test_cross_program_interaction_flagged(self):
        monitor = self.run_pair()
        interactions = monitor.interaction_warnings()
        assert interactions
        warning = interactions[0]
        assert warning.severity is Severity.MEDIUM
        assert "/opt/dropper" in warning.render()
        assert "/opt/launcher" in warning.render()

    def test_interaction_reported_once_per_triple(self):
        monitor = self.run_pair()
        # chmod and execve both touch the file, but one (creator, user,
        # path) triple is reported once
        assert len(monitor.interaction_warnings()) == 1

    def test_same_group_not_flagged(self):
        # the g++ case: parent + helpers form one program group
        monitor = self.run_pair(same_group=True)
        assert monitor.interaction_warnings() == []

    def test_fork_children_inherit_group(self):
        monitor = MultiProgramMonitor()
        forker = assemble(
            "/opt/forker",
            r"""
main:
    call fork
    cmp eax, 0
    jz child
    mov eax, 0
    ret
child:
    mov ebx, dropfile
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, msg
    call fputs
    mov ebx, esi
    call close
    mov ebx, dropfile
    mov ecx, 0x1ed
    call chmod
    mov ebx, 0
    call exit
.data
dropfile: .asciz "/tmp/own"
msg: .asciz "mine"
""",
        )
        monitor.spawn(forker)
        result = monitor.run()
        assert result.reason == "all-exited"
        # the child chmods its *own* program group's file: no interaction
        assert monitor.interaction_warnings() == []


class TestSessionStorePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = SessionStore()
        store.begin_session("/p")
        store.record_drop("/p", "/tmp/a")
        store.begin_session("/q")
        path = tmp_path / "store.json"
        store.save(path)
        restored = SessionStore.load(path)
        # the restored store continues where the saved one left off
        assert restored.begin_session("/p") == 2
        assert restored.dropped_in_earlier_session("/p", "/tmp/a") == 1
        assert restored.history("/q").sessions == 1

    def test_escalation_survives_restart(self, tmp_path):
        """Drop in one monitor process, escalate in a fresh one - the
        cross-session state round-trips through disk."""
        monitor = CrossSessionMonitor()
        image = assemble("/home/user/twostage", TWO_STAGE_SOURCE)
        monitor.hth.register_binary(image)
        monitor.run_session(image)
        path = tmp_path / "store.json"
        monitor.store.save(path)

        fresh = CrossSessionMonitor()
        fresh.store = SessionStore.load(path)
        fresh.analyzer.store = fresh.store
        fresh.hth.register_binary(image)
        # the dropped file must exist on the "machine" too
        fresh.hth.fs.write_text("/tmp/.stage2", "stage two payload")
        session = fresh.run_session(image)
        assert any(
            w.rule == "check_cross_session_use" for w in session.warnings
        )
