"""Fault injector tests: seed determinism, stall transparency, semantic
faults (errno / connect reset / resolve failure), jitter, budgets, the
watchdog, and RunReport surfacing."""

from dataclasses import replace

from repro.core import HTH
from repro.faultinject import (
    FaultInjector,
    FaultKind,
    FaultProfile,
    TRANSPARENT_PROFILE,
)
from repro.isa import assemble
from repro.kernel import errors
from repro.kernel.syscalls import SYS_OPEN, SYS_READ, SYS_WRITE


ECHO = """
main:
    mov ebx, 0
    mov ecx, buf
    mov edx, 16
    call read
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    call write
    mov ebx, done
    call print
    mov eax, 0
    ret
.data
buf: .space 16
done: .asciz "done"
"""

CONNECT = """
main:
    call socket
    mov esi, eax
    mov ebx, name
    call gethostbyname
    cmp eax, 0
    jl nohost
    mov ecx, eax
    mov ebx, esi
    mov edx, 80
    call connect_addr
    cmp eax, 0
    jl refused
    mov ebx, ok
    call print
    mov eax, 0
    ret
nohost:
    mov ebx, nohostmsg
    call print
    mov eax, 0
    ret
refused:
    mov ebx, refusedmsg
    call print
    mov eax, 0
    ret
.data
name: .asciz "srv"
ok: .asciz "connected"
nohostmsg: .asciz "nohost"
refusedmsg: .asciz "refused"
"""

SPIN = "main:\nspin:\n  jmp spin"


def run_echo(fault_injector=None, typed="typed in\n"):
    hth = HTH(fault_injector=fault_injector)
    hth.provide_input(typed)
    return hth.run(assemble("/bin/echo", ECHO))


def run_connect(fault_injector=None):
    from repro.kernel.network import ConversationPeer

    hth = HTH(fault_injector=fault_injector)
    hth.network.add_peer(
        "srv", 80, lambda: ConversationPeer("p", opening=b"hi")
    )
    return hth.run(assemble("/bin/net", CONNECT))


class TestDeterminism:
    def test_same_seed_same_run(self):
        reports = [
            run_echo(FaultInjector(profile=TRANSPARENT_PROFILE, seed=42))
            for _ in range(2)
        ]
        a, b = reports
        assert [str(f) for f in a.injected_faults] == [
            str(f) for f in b.injected_faults
        ]
        assert a.console_output == b.console_output
        assert a.verdict is b.verdict
        assert [e.call_name for e in a.events] == [
            e.call_name for e in b.events
        ]

    def test_seed_recorded_on_injector(self):
        injector = FaultInjector(profile=TRANSPARENT_PROFILE, seed=7)
        assert injector.seed == 7
        assert injector.fault_count == 0


class TestStallTransparency:
    def test_certain_stalls_do_not_change_guest_semantics(self):
        baseline = run_echo()
        profile = replace(TRANSPARENT_PROFILE, stall_rate=1.0,
                          quantum_jitter=0.0)
        injector = FaultInjector(profile=profile, seed=3)
        chaotic = run_echo(injector)
        assert injector.fault_count > 0
        assert all(f.kind is FaultKind.STALL for f in injector.injected)
        assert chaotic.console_output == baseline.console_output
        assert chaotic.exit_code == baseline.exit_code
        assert chaotic.verdict is baseline.verdict
        assert chaotic.result.reason == "all-exited"
        # Each syscall's pre-event fires exactly once (on the attempt),
        # so the observed event stream is identical too.
        assert [e.call_name for e in chaotic.events] == [
            e.call_name for e in baseline.events
        ]


class TestSemanticFaults:
    def test_errno_injection_is_guest_visible(self):
        profile = FaultProfile(
            errno_rate=1.0,
            errno_codes=(errors.EIO,),
            errno_syscalls=frozenset({SYS_READ, SYS_WRITE, SYS_OPEN}),
        )
        injector = FaultInjector(profile=profile, seed=5)
        report = run_echo(injector)
        assert report.result.completed
        # Every read/write failed with -EIO, so nothing reached stdout.
        assert report.console_output == ""
        assert any(
            f.kind is FaultKind.ERRNO and f.detail == "EIO"
            for f in injector.injected
        )

    def test_connect_reset(self):
        assert run_connect().console_output == "connected"
        injector = FaultInjector(
            profile=FaultProfile(connect_reset_rate=1.0), seed=1
        )
        report = run_connect(injector)
        assert report.console_output == "refused"
        assert any(
            f.kind is FaultKind.CONNECT_RESET for f in injector.injected
        )

    def test_resolve_failure(self):
        injector = FaultInjector(
            profile=FaultProfile(resolve_fail_rate=1.0), seed=1
        )
        report = run_connect(injector)
        assert report.console_output == "nohost"
        assert any(
            f.kind is FaultKind.RESOLVE_FAIL for f in injector.injected
        )


class TestQuantumJitter:
    def test_jitter_is_deterministic_and_bounded(self):
        profile = FaultProfile(quantum_jitter=0.5)
        a = FaultInjector(profile=profile, seed=9)
        b = FaultInjector(profile=profile, seed=9)
        quanta = [a.quantum(1000) for _ in range(20)]
        assert quanta == [b.quantum(1000) for _ in range(20)]
        assert all(500 <= q <= 1500 for q in quanta)
        assert len(set(quanta)) > 1

    def test_zero_jitter_passes_base_through(self):
        injector = FaultInjector(profile=FaultProfile(), seed=9)
        assert injector.quantum(1000) == 1000

    def test_jitter_never_returns_zero(self):
        injector = FaultInjector(
            profile=FaultProfile(quantum_jitter=1.0), seed=0
        )
        assert all(injector.quantum(1) >= 1 for _ in range(50))


class TestFaultBudget:
    def test_max_faults_caps_injection(self):
        profile = replace(
            TRANSPARENT_PROFILE, stall_rate=1.0, max_faults=2
        )
        injector = FaultInjector(profile=profile, seed=11)
        report = run_echo(injector)
        assert report.result.completed
        assert injector.fault_count == 2


class TestWatchdog:
    def test_wedged_guest_returns_watchdog_reason(self):
        hth = HTH()
        report = hth.run(
            assemble("/bin/spin", SPIN),
            max_ticks=10**9,
            wall_timeout=0.1,
        )
        assert report.result.reason == "watchdog"
        assert not report.result.completed


class TestReportSurfacing:
    def test_fault_fields_present(self):
        injector = FaultInjector(profile=TRANSPARENT_PROFILE, seed=42)
        report = run_echo(injector)
        assert report.fault_seed == 42
        assert report.injected_faults == tuple(injector.injected)
        if report.injected_faults:
            assert "chaos seed=42" in report.summary_line()

    def test_fault_fields_absent_without_injector(self):
        report = run_echo()
        assert report.fault_seed is None
        assert report.injected_faults == ()
        assert "chaos" not in report.summary_line()

    def test_render_log(self):
        injector = FaultInjector(profile=TRANSPARENT_PROFILE, seed=42)
        assert injector.render_log() == "(no faults injected)"
        run_echo(injector)
        if injector.injected:
            assert "stall" in injector.render_log()
