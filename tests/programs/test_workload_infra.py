"""Tests for the workload infrastructure itself: the Workload dataclass,
the Table 6 program builder, and the guest libc routines."""

import pytest

from repro.core.report import Verdict
from repro.programs.base import Workload
from repro.programs.micro.infoflow import (
    Table6Row,
    _ProgramBuilder,
    row_workload,
    table6_rows,
)


class TestWorkload:
    def test_image_is_reassembled_per_call(self):
        w = Workload(
            name="t", program_path="/bin/t",
            source="main:\n  mov eax, 0\n  ret",
        )
        assert w.image().name == "/bin/t"
        assert w.image() is not w.image()  # no shared mutable state

    def test_classified_correctly_checks_rules_subset(self):
        w = Workload(
            name="t", program_path="/bin/t",
            source="main:\n  mov eax, 0\n  ret",
            expected_verdict=Verdict.BENIGN,
            expected_rules=("check_execve",),
        )
        report = w.run()
        # verdict matches but the expected rule never fired
        assert report.verdict is Verdict.BENIGN
        assert not w.classified_correctly(report)

    def test_env_and_stdin_passed(self):
        w = Workload(
            name="t", program_path="/bin/t",
            source=r"""
main:
    mov ebp, esp
    load ebx, [ebp+3]
    mov ecx, key
    call env_lookup
    mov ebx, eax
    call print
    mov ebx, 0
    mov ecx, buf
    mov edx, 16
    call read_line
    mov ebx, buf
    call print
    mov eax, 0
    ret
.data
key: .asciz "GREETING"
buf: .space 16
""",
            env={"GREETING": "salve"},
            stdin="typed\n",
        )
        report = w.run()
        assert report.console_output == "salvetyped"


class TestTable6Builder:
    def test_every_row_assembles(self):
        for row in table6_rows():
            workload = row_workload(row)
            image = workload.image()  # raises on assembly errors
            assert image.text_size > 0

    def test_argv_assignment_matches_placeholders(self):
        row = Table6Row(
            "File -> socket", "test", "file", "socket",
            source_name_origin="user", target_name_origin="user",
        )
        builder = _ProgramBuilder(row)
        source, argv = builder.build()
        # one file name + host + port = three argv slots, in order
        assert len(argv) == 3
        assert argv[0].endswith("notes.txt")

    def test_rows_have_unique_program_paths(self):
        paths = [row_workload(r).program_path for r in table6_rows()]
        assert len(paths) == len(set(paths))

    def test_bad_origin_rejected(self):
        row = Table6Row("x", "x", "file", "file",
                        source_name_origin="nonsense",
                        target_name_origin="user")
        with pytest.raises(ValueError):
            _ProgramBuilder(row).build()


class TestGuestLibc:
    """Exercise libc routines through tiny guest programs."""

    def run_source(self, body, data="", stdin=None):
        from repro.core.hth import HTH
        from repro.isa import assemble

        source = f"main:\n{body}\n    mov eax, 0\n    ret\n"
        if data:
            source += f".data\n{data}\n"
        hth = HTH()
        report = hth.run(assemble("/bin/libctest", source), stdin=stdin)
        assert not report.faults
        return report

    def test_strlen_and_print_num(self):
        report = self.run_source(
            """
    mov ebx, msg
    call strlen
    mov ebx, eax
    call print_num""",
            data='msg: .asciz "12345"',
        )
        assert report.console_output == "5"

    def test_strcmp_equal_and_different(self):
        report = self.run_source(
            """
    mov ebx, a
    mov ecx, b
    call strcmp
    mov ebx, eax
    call print_num
    mov ebx, nl
    call print
    mov ebx, a
    mov ecx, a
    call strcmp
    mov ebx, eax
    call print_num""",
            data='a: .asciz "abc"\nb: .asciz "abd"\nnl: .asciz " "',
        )
        first, second = report.console_output.split(" ")
        assert int(first) != 0
        assert int(second) == 0

    def test_strcat(self):
        report = self.run_source(
            """
    mov ebx, buf
    mov ecx, a
    call strcpy
    mov ebx, buf
    mov ecx, b
    call strcat
    mov ebx, buf
    call print""",
            data='a: .asciz "foo"\nb: .asciz "bar"\nbuf: .space 16',
        )
        assert report.console_output == "foobar"

    def test_memcpy(self):
        report = self.run_source(
            """
    mov ebx, buf
    mov ecx, src
    mov edx, 3
    call memcpy
    mov ebx, buf
    call print""",
            data='src: .asciz "xyzzy"\nbuf: .space 8',
        )
        assert report.console_output == "xyz"

    def test_atoi_itoa_roundtrip(self):
        report = self.run_source(
            """
    mov ebx, numstr
    call atoi
    mov ebx, eax
    mov ecx, buf
    call itoa
    mov ebx, eax
    call print""",
            data='numstr: .asciz "90125"\nbuf: .space 16',
        )
        assert report.console_output == "90125"

    def test_itoa_negative(self):
        report = self.run_source(
            """
    mov ebx, 0
    sub ebx, 42
    call print_num""",
        )
        assert report.console_output == "-42"

    def test_rand_deterministic_sequence(self):
        report = self.run_source(
            """
    call rand
    mov esi, eax
    call rand
    cmp eax, esi
    jz same
    mov ebx, diff_msg
    call print
    jmp out
same:
    mov ebx, same_msg
    call print
out:""",
            data='diff_msg: .asciz "different"\nsame_msg: .asciz "same"',
        )
        assert report.console_output == "different"

    def test_env_lookup_missing_returns_zero(self):
        report = self.run_source(
            """
    mov ebp, esp
    load ebx, [ebp+3]
    mov ecx, key
    call env_lookup
    mov ebx, eax
    call print_num""",
            data='key: .asciz "NOPE"',
        )
        # main's prologue above shifted ebp by our added instructions?
        # -> ebp set at main+0 is esp at entry; ok.
        assert report.console_output == "0"

    def test_malloc_returns_distinct_regions(self):
        report = self.run_source(
            """
    mov ebx, 16
    call malloc
    mov esi, eax
    mov ebx, 16
    call malloc
    sub eax, esi
    mov ebx, eax
    call print_num""",
        )
        assert report.console_output == "16"

    def test_system_runs_sh(self):
        report = self.run_source(
            """
    mov ebx, cmd
    call system""",
            data='cmd: .asciz "echo hi"',
        )
        # /bin/sh stub exits 0; parent continues. No fault, all exited.
        assert report.result.reason == "all-exited"
