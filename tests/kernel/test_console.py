"""Console device tests."""

from repro.kernel.console import Console


class TestInput:
    def test_provide_and_read(self):
        console = Console()
        console.provide_input("abc")
        assert console.read(2) == b"ab"
        assert console.read(5) == b"c"
        assert console.read(5) == b""

    def test_provide_bytes(self):
        console = Console()
        console.provide_input(b"\x01\x02")
        assert console.read(10) == b"\x01\x02"

    def test_read_line_stops_at_newline(self):
        console = Console()
        console.provide_input("one\ntwo\n")
        assert console.read_line(64) == b"one\n"
        assert console.read_line(64) == b"two\n"
        assert console.read_line(64) == b""

    def test_read_line_respects_max(self):
        console = Console()
        console.provide_input("abcdef\n")
        assert console.read_line(3) == b"abc"

    def test_read_line_without_newline(self):
        console = Console()
        console.provide_input("tail")
        assert console.read_line(64) == b"tail"


class TestOutput:
    def test_write_and_capture(self):
        console = Console()
        console.write(1, b"hello ")
        console.write(2, b"world")
        assert console.output_text() == "hello world"

    def test_per_pid_capture(self):
        console = Console()
        console.write(1, b"one")
        console.write(2, b"two")
        assert console.output_text(pid=1) == "one"
        assert console.output_bytes(pid=2) == b"two"

    def test_write_returns_length(self):
        assert Console().write(1, b"abcd") == 4
