"""Kernel/scheduler tests: spawn, quanta, sleeping, blocking, faults,
monitor kill, virtual-clock jumps."""

import pytest

from repro.isa import assemble
from repro.kernel import (
    EXIT_FAULT,
    EXIT_KILLED_BY_MONITOR,
    Kernel,
    KernelHooks,
)
from repro.kernel.syscalls import SYS_EXECVE
from repro.programs.libc import libc_image


def make_kernel(hooks=None):
    return Kernel(hooks=hooks, libraries=[libc_image()])


class TestSpawn:
    def test_spawn_unknown_path_raises(self):
        with pytest.raises(KeyError):
            make_kernel().spawn("/bin/ghost")

    def test_spawn_by_registered_path(self):
        k = make_kernel()
        image = assemble("/bin/p", "main:\n  mov eax, 0\n  ret")
        k.register_binary(image)
        proc = k.spawn("/bin/p")
        assert proc.pid == 1
        result = k.run()
        assert result.completed
        assert proc.exit_code == 0

    def test_register_binary_creates_fs_entry(self):
        k = make_kernel()
        k.register_binary(assemble("/bin/p", "main:\n  ret"))
        node = k.fs.lookup("/bin/p")
        assert node is not None and node.is_executable()

    def test_stdio_installed(self):
        k = make_kernel()
        proc = k.spawn(assemble("/bin/p", "main:\n  ret"))
        assert proc.get_fd(0).console_role == "stdin"
        assert proc.get_fd(1).console_role == "stdout"
        assert proc.get_fd(2).console_role == "stderr"

    def test_pids_monotonic(self):
        k = make_kernel()
        image = assemble("/bin/p", "main:\n  mov eax, 0\n  ret")
        a = k.spawn(image)
        b = k.spawn("/bin/p")
        assert (a.pid, b.pid) == (1, 2)


class TestSchedulerTermination:
    def test_all_exited(self):
        k = make_kernel()
        k.spawn(assemble("/bin/p", "main:\n  mov eax, 0\n  ret"))
        assert k.run().reason == "all-exited"

    def test_max_ticks_on_infinite_loop(self):
        k = make_kernel()
        k.spawn(assemble("/bin/p", "main:\nspin:\n  jmp spin"))
        result = k.run(max_ticks=5000)
        assert result.reason == "max-ticks"
        assert result.ticks >= 5000

    def test_deadlock_on_forever_blocked(self):
        # accept with no scheduled client ever arriving
        src = r"""
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
        k = make_kernel()
        k.spawn(assemble("/bin/p", src))
        assert k.run().reason == "deadlock"

    def test_virtual_clock_jumps_over_sleep(self):
        src = "main:\n  mov ebx, 1000000\n  call sleep\n  mov eax, 0\n  ret"
        k = make_kernel()
        k.spawn(assemble("/bin/p", src))
        result = k.run()
        assert result.completed
        assert result.ticks >= 1_000_000
        # far fewer instructions than ticks: the clock jumped
        assert result.instructions < 1000


class TestFaults:
    def test_hlt_exits_with_fault(self):
        k = make_kernel()
        proc = k.spawn(assemble("/bin/p", "main:\n  hlt"))
        k.run()
        assert proc.exit_code == EXIT_FAULT
        assert k.faults()

    def test_division_by_zero_faults(self):
        k = make_kernel()
        proc = k.spawn(
            assemble("/bin/p", "main:\n  mov eax, 4\n  div eax, ebx\n  ret")
        )
        k.run()
        assert proc.exit_code == EXIT_FAULT

    def test_jump_to_unmapped_faults(self):
        k = make_kernel()
        proc = k.spawn(assemble("/bin/p", "main:\n  jmp 0xdead\n"))
        k.run()
        assert proc.exit_code == EXIT_FAULT


class TestMonitorVeto:
    def test_pre_hook_false_kills_process(self):
        class Veto(KernelHooks):
            def on_syscall_pre(self, proc, sysno, args, info):
                return sysno != SYS_EXECVE

        src = r"""
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
        k = make_kernel(hooks=Veto())
        k.register_binary(assemble("/bin/ls", "main:\n  mov eax, 0\n  ret"))
        proc = k.spawn(assemble("/bin/p", src))
        k.run()
        assert proc.exit_code == EXIT_KILLED_BY_MONITOR
        assert proc.killed_by_monitor


class TestForkSemantics:
    def test_fork_copies_memory(self):
        # parent writes to a cell after fork; child sees the old value
        src = r"""
main:
    mov edi, cell
    store [edi], 1
    call fork
    cmp eax, 0
    jz child
    store [edi], 2          ; parent's private change
    mov eax, 0
    ret
child:
    mov ebx, 300
    call sleep              ; let the parent write first
    load ebx, [edi]
    call print_num
    mov ebx, 0
    call exit
.data
cell: .word 0
"""
        k = make_kernel()
        k.spawn(assemble("/bin/p", src))
        k.run()
        assert k.console.output_text() == "1"

    def test_fork_shares_open_file_description(self):
        # both processes write through the same fd; writes interleave into
        # one file (shared offset)
        src = r"""
main:
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    call fork
    cmp eax, 0
    jz child
    mov ebx, 200
    call sleep
    mov ebx, esi
    mov ecx, pmsg
    call fputs
    mov eax, 0
    ret
child:
    mov ebx, esi
    mov ecx, cmsg
    call fputs
    mov ebx, 0
    call exit
.data
path: .asciz "/tmp/shared"
pmsg: .asciz "P"
cmsg: .asciz "C"
"""
        k = make_kernel()
        k.spawn(assemble("/bin/p", src))
        k.run()
        assert k.fs.read_text("/tmp/shared") == "CP"


class TestHooksOrdering:
    def test_lifecycle_hook_sequence(self):
        calls = []

        class Recorder(KernelHooks):
            def on_process_start(self, proc):
                calls.append(("start", proc.pid))

            def on_image_load(self, proc, loaded):
                calls.append(("load", loaded.name))

            def on_initial_stack(self, proc, start, end):
                calls.append(("stack", end - start > 0))

            def on_process_exit(self, proc, code):
                calls.append(("exit", proc.pid, code))

        k = make_kernel(hooks=Recorder())
        k.spawn(assemble("/bin/p", "main:\n  mov eax, 3\n  ret"),
                argv=["/bin/p"])
        k.run()
        names = [c[0] for c in calls]
        assert names.index("load") < names.index("stack") < names.index(
            "start"
        )
        assert ("exit", 1, 3) in calls
        loaded = [c[1] for c in calls if c[0] == "load"]
        assert "/bin/p" in loaded
        assert "/lib/libc.so" in loaded
        assert "[startup]" in loaded
