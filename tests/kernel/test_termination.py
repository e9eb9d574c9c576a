"""Every way ``Kernel.run`` can end, in one place: the four RunResult
reasons ('all-exited', 'max-ticks', 'deadlock', 'watchdog') and the two
abnormal exit codes (EXIT_FAULT, EXIT_KILLED_BY_MONITOR)."""

from repro.harrier.blockcache import BlockCacheStore
from repro.isa import assemble
from repro.kernel import (
    EXIT_FAULT,
    EXIT_KILLED_BY_MONITOR,
    Kernel,
    KernelHooks,
)
from repro.kernel.syscalls import SYS_EXECVE
from repro.programs.libc import libc_image


EXIT_OK = "main:\n  mov eax, 0\n  ret"
SPIN = "main:\nspin:\n  jmp spin"

# accept() with no client ever scheduled: blocked forever.
ACCEPT_FOREVER = """
main:
    call socket
    mov esi, eax
    mov ebx, esi
    mov ecx, 0x7F000001
    mov edx, 1
    call bind_addr
    mov ebx, esi
    call listen
    mov ebx, esi
    call accept
    mov eax, 0
    ret
"""

EXEC_LS = """
main:
    mov ebx, tgt
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 0
    ret
.data
tgt: .asciz "/bin/ls"
"""


def make_kernel(hooks=None):
    return Kernel(BlockCacheStore(), hooks=hooks, libraries=[libc_image()])


class TestRunReasons:
    def test_all_exited(self):
        k = make_kernel()
        k.spawn(assemble("/bin/p", EXIT_OK))
        result = k.run()
        assert result.reason == "all-exited"
        assert result.completed

    def test_max_ticks(self):
        k = make_kernel()
        k.spawn(assemble("/bin/p", SPIN))
        result = k.run(max_ticks=2000)
        assert result.reason == "max-ticks"
        assert not result.completed
        assert result.ticks >= 2000

    def test_deadlock(self):
        k = make_kernel()
        k.spawn(assemble("/bin/p", ACCEPT_FOREVER))
        result = k.run(max_ticks=100_000)
        assert result.reason == "deadlock"
        assert not result.completed

    def test_watchdog(self):
        k = make_kernel()
        k.spawn(assemble("/bin/p", SPIN))
        result = k.run(max_ticks=10**9, wall_timeout=0.1)
        assert result.reason == "watchdog"
        assert not result.completed

    def test_no_watchdog_when_run_finishes_in_time(self):
        k = make_kernel()
        k.spawn(assemble("/bin/p", EXIT_OK))
        result = k.run(wall_timeout=30.0)
        assert result.reason == "all-exited"


class TestAbnormalExitCodes:
    def test_cpu_fault_exits_with_exit_fault(self):
        k = make_kernel()
        proc = k.spawn(assemble("/bin/p", "main:\n  jmp 0xdead"))
        result = k.run()
        assert result.reason == "all-exited"
        assert proc.exit_code == EXIT_FAULT
        assert result.exit_codes[proc.pid] == EXIT_FAULT

    def test_hlt_exits_with_exit_fault(self):
        k = make_kernel()
        proc = k.spawn(assemble("/bin/p", "main:\n  hlt"))
        k.run()
        assert proc.exit_code == EXIT_FAULT
        assert k.faults()

    def test_monitor_veto_kills_with_monitor_code(self):
        class VetoExec(KernelHooks):
            def on_syscall_pre(self, proc, sysno, args, info):
                return sysno != SYS_EXECVE

        k = make_kernel(hooks=VetoExec())
        k.register_binary(assemble("/bin/ls", EXIT_OK))
        proc = k.spawn(assemble("/bin/p", EXEC_LS))
        result = k.run()
        assert result.reason == "all-exited"
        assert proc.exit_code == EXIT_KILLED_BY_MONITOR
        assert proc.killed_by_monitor
        assert result.exit_codes[proc.pid] == EXIT_KILLED_BY_MONITOR


class TestExitCodeMap:
    def test_every_process_reported(self):
        k = make_kernel()
        image = assemble("/bin/p", EXIT_OK)
        a = k.spawn(image)
        b = k.spawn(image)
        result = k.run()
        assert result.exit_codes == {a.pid: 0, b.pid: 0}

    def test_unfinished_process_has_none_exit_code(self):
        k = make_kernel()
        proc = k.spawn(assemble("/bin/p", SPIN))
        result = k.run(max_ticks=2000)
        assert result.exit_codes[proc.pid] is None
