"""Syscall behaviour tests via small guest programs (file I/O, process
management, sockets, FIFOs, errors)."""

import pytest

from repro.kernel.network import ConversationPeer


class TestFileIO:
    def test_open_write_close_creates_file(self, guest):
        report = guest.run(
            r"""
main:
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, msg
    call fputs
    mov ebx, esi
    call close
    mov eax, 0
    ret
.data
path: .asciz "/tmp/out"
msg: .asciz "written"
"""
        )
        assert report.exit_code == 0
        fs = guest.last_machine.fs
        assert fs.read_text("/tmp/out") == "written"

    def test_read_missing_file_returns_enoent(self, guest):
        report = guest.run(
            r"""
main:
    mov ebx, path
    mov ecx, 0
    call open
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
.data
path: .asciz "/no/such/file"
"""
        )
        assert report.console_output == "-2"  # -ENOENT

    def test_append_mode(self, guest):
        def setup(hth):
            hth.fs.write_text("/tmp/log", "start;")

        report = guest.run(
            r"""
main:
    mov ebx, path
    mov ecx, 0x401          ; O_WRONLY|O_APPEND
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, msg
    call fputs
    mov ebx, esi
    call close
    mov eax, 0
    ret
.data
path: .asciz "/tmp/log"
msg: .asciz "more"
""",
            setup=setup,
        )
        assert guest.last_machine.fs.read_text("/tmp/log") == "start;more"

    def test_directory_read_gives_listing(self, guest):
        def setup(hth):
            hth.fs.write_text("visible.txt", "x")

        report = guest.run(
            r"""
main:
    mov ebx, dot
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 128
    call read
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    call write
    mov eax, 0
    ret
.data
dot: .asciz "."
buf: .space 128
""",
            setup=setup,
        )
        assert "visible.txt" in report.console_output

    def test_dup_shares_offset(self, guest):
        def setup(hth):
            hth.fs.write_text("/tmp/f", "abcdef")

        report = guest.run(
            r"""
main:
    mov ebx, path
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    call dup
    mov edi, eax
    ; read 3 via original, then 3 via dup - offsets are shared
    mov ebx, esi
    mov ecx, buf
    mov edx, 3
    call read
    mov ebx, edi
    mov ecx, buf2
    mov edx, 3
    call read
    mov ebx, 1
    mov ecx, buf2
    mov edx, 3
    call write
    mov eax, 0
    ret
.data
path: .asciz "/tmp/f"
buf: .space 8
buf2: .space 8
""",
            setup=setup,
        )
        assert report.console_output == "def"

    def test_unlink_and_chmod(self, guest):
        def setup(hth):
            hth.fs.write_text("/tmp/victim", "x")
            hth.fs.write_text("/tmp/tool", "x")

        guest.run(
            r"""
main:
    mov ebx, victim
    call unlink
    mov ebx, tool
    mov ecx, 0x1ed
    call chmod
    mov eax, 0
    ret
.data
victim: .asciz "/tmp/victim"
tool:   .asciz "/tmp/tool"
""",
            setup=setup,
        )
        fs = guest.last_machine.fs
        assert not fs.exists("/tmp/victim")
        assert fs.lookup("/tmp/tool").is_executable()


class TestProcesses:
    def test_fork_returns_pid_and_zero(self, guest):
        report = guest.run(
            r"""
main:
    call fork
    cmp eax, 0
    jz child
    mov ebx, parent_msg
    call print
    mov eax, 0
    ret
child:
    mov ebx, child_msg
    call print
    mov ebx, 0
    call exit
.data
parent_msg: .asciz "P"
child_msg: .asciz "C"
"""
        )
        assert sorted(report.console_output) == ["C", "P"]
        assert report.result.reason == "all-exited"

    def test_getpid_and_exit_code(self, guest):
        report = guest.run(
            r"""
main:
    call getpid
    mov ebx, eax
    call print_num
    mov eax, 42
    ret
"""
        )
        assert report.console_output == "1"
        assert report.exit_code == 42

    def test_execve_replaces_image(self, guest):
        target = r"""
main:
    mov ebx, msg
    call print
    mov eax, 0
    ret
.data
msg: .asciz "i am the target"
"""
        from repro.isa import assemble

        def setup(hth):
            hth.register_binary(assemble("/bin/target", target))

        report = guest.run(
            r"""
main:
    mov ebx, tgt
    mov ecx, 0
    mov edx, 0
    call execve
    ; never reached on success
    mov ebx, failmsg
    call print
    mov eax, 1
    ret
.data
tgt: .asciz "/bin/target"
failmsg: .asciz "exec failed"
""",
            setup=setup,
        )
        assert report.console_output == "i am the target"
        assert report.exit_code == 0

    def test_execve_missing_returns_enoent(self, guest):
        report = guest.run(
            r"""
main:
    mov ebx, tgt
    mov ecx, 0
    mov edx, 0
    call execve
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
.data
tgt: .asciz "/bin/does_not_exist"
"""
        )
        assert report.console_output == "-2"

    def test_execve_non_program_file_enoexec(self, guest):
        def setup(hth):
            hth.fs.write_text("/tmp/script", "not a program", mode=0o755)

        report = guest.run(
            r"""
main:
    mov ebx, tgt
    mov ecx, 0
    mov edx, 0
    call execve
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
.data
tgt: .asciz "/tmp/script"
""",
            setup=setup,
        )
        assert report.console_output == "-8"  # -ENOEXEC

    def test_execve_non_executable_eacces(self, guest):
        def setup(hth):
            hth.fs.write_text("/tmp/plain", "data", mode=0o644)

        report = guest.run(
            r"""
main:
    mov ebx, tgt
    mov ecx, 0
    mov edx, 0
    call execve
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
.data
tgt: .asciz "/tmp/plain"
""",
            setup=setup,
        )
        assert report.console_output == "-13"  # -EACCES

    # A NULL argv and one pointing at unmapped memory (which reads as
    # zeros: an empty array) both run the target as argv = [path].
    @pytest.mark.parametrize("argv_ptr", [0, 0x7ABCDEF0],
                             ids=["null", "unmapped"])
    def test_execve_without_argv_passes_the_path(self, guest, argv_ptr):
        target = r"""
main:
    load ebx, [esp+1]
    call print_num
    load ebx, [esp+2]
    load ebx, [ebx]
    call print
    mov eax, 0
    ret
"""
        from repro.isa import assemble

        def setup(hth):
            hth.register_binary(assemble("/bin/target", target))

        source = rf"""
main:
    mov ebx, tgt
    mov ecx, {argv_ptr:#x}
    mov edx, 0
    call execve
    mov ebx, eax
    call print_num
    mov eax, 1
    ret
.data
tgt: .asciz "/bin/target"
"""
        report = guest.run(source, setup=setup)
        assert report.console_output == "1/bin/target"
        assert report.exit_code == 0
        execs = [(e.call_name, e.resource.name) for e in report.events
                 if e.call_name == "SYS_execve"]
        assert execs == [("SYS_execve", "/bin/target")]
        # The same call to a missing file returns -ENOENT.
        missing = guest.run(source.replace("/bin/target", "/bin/nothing"))
        assert missing.console_output == "-2"
        assert missing.exit_code == 1
        assert [(e.call_name, e.resource.name) for e in missing.events] == [
            ("SYS_execve", "/bin/nothing")]

    def test_execve_with_unreadable_argv_is_efault(self, guest):
        """An argv string with no NUL within the cstring limit: the
        call fails with -EFAULT and the caller runs on."""
        report = guest.run(
            r"""
main:
    mov edi, long
    mov ecx, 5000
fill:
    mov eax, 65
    store [edi], eax
    add edi, 1
    sub ecx, 1
    cmp ecx, 0
    jnz fill
    mov ebx, tgt
    mov ecx, argv
    mov edx, 0
    call execve
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
.data
tgt: .asciz "/bin/nothing"
argv: .word long
      .word 0
long: .space 8
"""
        )
        assert report.console_output == "-14"  # -EFAULT
        assert report.exit_code == 0

    def test_time_advances(self, guest):
        report = guest.run(
            r"""
main:
    call time
    mov esi, eax
    mov ebx, 100
    call sleep
    call time
    sub eax, esi
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
"""
        )
        assert int(report.console_output) >= 100


class TestSockets:
    def test_client_roundtrip(self, guest):
        def setup(hth):
            hth.network.add_peer(
                "echo.example", 7,
                lambda: ConversationPeer("echo", replies=[b"pong"]),
            )

        report = guest.run(
            r"""
main:
    mov ebx, host
    call gethostbyname
    mov ecx, eax
    call socket
    mov ebx, eax
    mov edx, 7
    push ebx
    call connect_addr
    pop ebx
    push ebx
    mov ecx, ping
    call fputs
    pop ebx
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
host: .asciz "echo.example"
ping: .asciz "ping"
buf: .space 16
""",
            setup=setup,
        )
        assert report.console_output == "pong"

    def test_connect_refused(self, guest):
        report = guest.run(
            r"""
main:
    call socket
    mov ebx, eax
    mov ecx, 0x7F000001
    mov edx, 12345
    call connect_addr
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
"""
        )
        assert report.console_output == "-111"  # -ECONNREFUSED

    def test_resolve_unknown_host(self, guest):
        report = guest.run(
            r"""
main:
    mov ebx, host
    call gethostbyname
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
.data
host: .asciz "unknown.example"
"""
        )
        assert report.console_output == "-113"  # -EHOSTUNREACH

    def test_server_accepts_scheduled_client(self, guest):
        def setup(hth):
            hth.network.schedule_connect(
                500, "LocalHost", 2222,
                ConversationPeer("client", opening=b"knock",
                                 close_when_done=False),
            )

        report = guest.run(
            r"""
main:
    call socket
    mov esi, eax
    mov ebx, esi
    mov ecx, 0x7F000001
    mov edx, 2222
    call bind_addr
    mov ebx, esi
    call listen
    mov ebx, esi
    call accept
    mov ebx, eax
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
""",
            setup=setup,
        )
        assert report.console_output == "knock"


class TestFifos:
    def test_fifo_roundtrip_between_processes(self, guest):
        report = guest.run(
            r"""
main:
    mov ebx, pipe_name
    call mkfifo
    call fork
    cmp eax, 0
    jz reader
    ; writer (parent)
    mov ebx, pipe_name
    mov ecx, 1              ; O_WRONLY
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, msg
    call fputs
    mov ebx, esi
    call close
    mov eax, 0
    ret
reader:
    mov ebx, pipe_name
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 16
    call read
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    call write
    mov ebx, 0
    call exit
.data
pipe_name: .asciz "/tmp/fifo"
msg: .asciz "through-pipe"
buf: .space 16
"""
        )
        assert report.console_output == "through-pipe"
        assert report.result.reason == "all-exited"


class TestStdio:
    def test_stdin_line_buffered(self, guest):
        report = guest.run(
            r"""
main:
    mov ebx, 0
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
buf: .space 32
""",
            stdin="line one\nline two\n",
        )
        assert report.console_output == "line one\n"

    def test_stdin_eof_returns_zero(self, guest):
        report = guest.run(
            r"""
main:
    mov ebx, 0
    mov ecx, buf
    mov edx, 8
    call read
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
.data
buf: .space 8
"""
        )
        assert report.console_output == "0"

    def test_stderr_writes_captured(self, guest):
        report = guest.run(
            r"""
main:
    mov ebx, 2
    mov ecx, msg
    call fputs
    mov eax, 0
    ret
.data
msg: .asciz "error!"
"""
        )
        assert report.console_output == "error!"

    def test_bad_fd_returns_ebadf(self, guest):
        report = guest.run(
            r"""
main:
    mov ebx, 99
    mov ecx, buf
    mov edx, 4
    call read
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
.data
buf: .space 4
"""
        )
        assert report.console_output == "-9"


class TestLseek:
    def test_seek_set_cur_end(self, guest):
        def setup(hth):
            hth.fs.write_text("/tmp/f", "0123456789")

        report = guest.run(
            r"""
main:
    mov ebx, path
    mov ecx, 0
    call open
    mov esi, eax
    ; SEEK_SET to 2
    mov ebx, esi
    mov ecx, 2
    mov edx, 0
    call lseek
    ; SEEK_CUR +3 -> 5
    mov ebx, esi
    mov ecx, 3
    mov edx, 1
    call lseek
    mov ebx, esi
    mov ecx, buf
    mov edx, 2
    call read
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    call write
    ; SEEK_END -1 -> last byte
    mov ebx, esi
    mov ecx, 0
    sub ecx, 1
    mov edx, 2
    call lseek
    mov ebx, esi
    mov ecx, buf
    mov edx, 4
    call read
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    call write
    mov eax, 0
    ret
.data
path: .asciz "/tmp/f"
buf: .space 8
""",
            setup=setup,
        )
        assert report.console_output == "569"

    def test_seek_errors(self, guest):
        report = guest.run(
            r"""
main:
    ; bad fd
    mov ebx, 77
    mov ecx, 0
    mov edx, 0
    call lseek
    mov ebx, eax
    call print_num
    mov ebx, sp_
    call print
    ; bad whence on a real fd
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, 0
    mov edx, 9
    call lseek
    mov ebx, eax
    call print_num
    mov ebx, sp_
    call print
    ; negative resulting offset
    mov ebx, esi
    mov ecx, 0
    sub ecx, 5
    mov edx, 0
    call lseek
    mov ebx, eax
    call print_num
    mov eax, 0
    ret
.data
path: .asciz "/tmp/new"
sp_: .asciz " "
"""
        )
        assert report.console_output == "-9 -22 -22"
