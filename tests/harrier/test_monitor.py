"""Harrier monitor lifecycle tests: fork/exec shadow handling, event log,
kill decisions, dataflow-off mode, resource-origin registry."""

from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.core.report import Verdict
from repro.harrier.config import HarrierConfig
from repro.harrier.events import DataTransferEvent, ProcessEvent
from repro.isa import assemble
from repro.taint import DataSource


class TestForkShadow:
    def test_child_inherits_tags_but_not_future_parent_tags(self):
        source = r"""
main:
    mov edi, cell
    store [edi], 7          ; BINARY-tagged before the fork
    call fork
    cmp eax, 0
    jz child
    ; parent taints another cell after the fork
    mov edi, cell2
    store [edi], 8
    mov eax, 0
    ret
child:
    ; child writes its inherited cell to a hardcoded file: the BINARY tag
    ; must have survived the fork
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, cell
    mov edx, 1
    call write
    mov ebx, 0
    call exit
.data
path: .asciz "/tmp/drop"
cell: .space 1
cell2: .space 1
"""
        hth = HTH()
        report = hth.run(assemble("/bin/t", source))
        writes = [
            e for e in report.events
            if isinstance(e, DataTransferEvent) and e.direction == "write"
        ]
        assert len(writes) == 1
        assert writes[0].data_tags.has_source(DataSource.BINARY)
        assert report.verdict is Verdict.HIGH  # binary -> hardcoded file

    def test_clone_counter_shared_across_tree(self):
        source = r"""
main:
    call fork
    call fork
    call fork
    mov eax, 0
    ret
"""
        hth = HTH()
        report = hth.run(assemble("/bin/t", source))
        clones = [e for e in report.events if isinstance(e, ProcessEvent)]
        # 1 + 2 + 4 = 7 forks across the whole tree, counted program-wide
        assert len(clones) == 7
        assert max(e.total_created for e in clones) == 7


class TestExecShadow:
    def test_exec_resets_taint_state(self):
        target = r"""
main:
    ; the new image writes its own hardcoded data - tags must refer to
    ; the NEW binary, not the old one
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, payload
    call fputs
    mov eax, 0
    ret
.data
path: .asciz "/tmp/after_exec"
payload: .asciz "fresh"
"""
        launcher = r"""
main:
    mov ebx, tgt
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 1
    ret
.data
tgt: .asciz "/bin/second"
"""
        hth = HTH()
        hth.register_binary(assemble("/bin/second", target))
        report = hth.run(assemble("/bin/first", launcher))
        writes = [
            e for e in report.events
            if isinstance(e, DataTransferEvent) and e.direction == "write"
        ]
        assert len(writes) == 1
        names = writes[0].data_tags.names_for(DataSource.BINARY)
        assert names == ("/bin/second",)


class TestDecisions:
    def test_kill_decision_stops_process(self):
        source = r"""
main:
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    call execve
    mov ebx, marker
    call print              ; must never run
    mov eax, 0
    ret
.data
prog: .asciz "/bin/ls"
marker: .asciz "SURVIVED"
"""
        hth = HTH(decision=lambda warning: False)
        report = hth.run(assemble("/bin/t", source))
        assert report.killed_by_monitor
        assert "SURVIVED" not in report.console_output
        assert hth.harrier.kills

    def test_continue_decision_lets_it_run(self):
        source = r"""
main:
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 0
    ret
.data
prog: .asciz "/bin/missing"
"""
        hth = HTH(decision=lambda warning: True)
        report = hth.run(assemble("/bin/t", source))
        assert not report.killed_by_monitor
        assert report.flagged


class TestDataflowOff:
    def test_no_dataflow_events_have_unknown_tags(self):
        source = r"""
main:
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, payload
    call fputs
    mov eax, 0
    ret
.data
path: .asciz "/tmp/x"
payload: .asciz "data"
"""
        hth = HTH(options=RunOptions(
            harrier_config=HarrierConfig(track_dataflow=False)))
        report = hth.run(assemble("/bin/t", source))
        writes = [
            e for e in report.events if isinstance(e, DataTransferEvent)
        ]
        assert writes
        assert all(
            e.data_tags.sources() == {DataSource.UNKNOWN} for e in writes
        )
        # no info-flow warnings without provenance
        assert report.verdict is Verdict.BENIGN

    def test_clone_rules_survive_dataflow_off(self):
        source = "main:\n" + "    call fork\n" * 4 + "    mov eax, 0\n    ret"
        hth = HTH(options=RunOptions(
            harrier_config=HarrierConfig(track_dataflow=False)))
        report = hth.run(assemble("/bin/t", source))
        assert any(e for e in report.events if isinstance(e, ProcessEvent))


class TestEventLog:
    def test_events_named_helper(self):
        source = r"""
main:
    mov ebx, path
    mov ecx, 0
    call open
    mov eax, 0
    ret
.data
path: .asciz "/ghost"
"""
        hth = HTH()
        hth.run(assemble("/bin/t", source))
        calls = [e.call_name for e in hth.harrier.events]
        assert calls.count("SYS_open") == 1
        assert "SYS_execve" not in calls

    def test_event_log_disabled(self):
        source = r"""
main:
    mov ebx, path
    mov ecx, 0
    call open
    mov eax, 0
    ret
.data
path: .asciz "/ghost"
"""
        hth = HTH(options=RunOptions(
            harrier_config=HarrierConfig(keep_event_log=False)))
        report = hth.run(assemble("/bin/t", source))
        assert hth.harrier.events == []
