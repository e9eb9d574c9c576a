"""Process / OpenFile unit tests."""

import pytest

from repro.isa import CPU, FlatMemory
from repro.kernel.filesystem import O_RDONLY, O_RDWR, O_WRONLY
from repro.kernel.process import (
    OpenFile,
    Process,
    ProcessState,
    ResourceKind,
    ResourceRef,
)


def make_process(pid=1):
    memory = FlatMemory()
    return Process(
        pid=pid, ppid=0, memory=memory, cpu=CPU(memory),
        command="/bin/t", argv=["/bin/t"], env={"A": "1", "B": "2"},
    )


class TestOpenFile:
    def test_resource_ref(self):
        of = OpenFile(ResourceKind.FILE, "/x")
        assert of.resource() == ResourceRef(ResourceKind.FILE, "/x")
        assert str(of.resource()) == "FILE:/x"

    @pytest.mark.parametrize(
        "flags,readable,writable",
        [
            (O_RDONLY, True, False),
            (O_WRONLY, False, True),
            (O_RDWR, True, True),
        ],
    )
    def test_access_modes(self, flags, readable, writable):
        of = OpenFile(ResourceKind.FILE, "/x", flags=flags)
        assert of.readable() is readable
        assert of.writable() is writable

    def test_console_roles(self):
        stdin = OpenFile(ResourceKind.CONSOLE, "STDIN", console_role="stdin")
        stdout = OpenFile(ResourceKind.CONSOLE, "STDOUT",
                          console_role="stdout")
        assert stdin.readable() and not stdin.writable()
        assert stdout.writable() and not stdout.readable()

    def test_appending(self):
        from repro.kernel.filesystem import O_APPEND

        of = OpenFile(ResourceKind.FILE, "/x", flags=O_WRONLY | O_APPEND)
        assert of.appending()


class TestProcessFds:
    def test_install_auto_numbers_from_3(self):
        proc = make_process()
        a = proc.install_fd(OpenFile(ResourceKind.FILE, "/a"))
        b = proc.install_fd(OpenFile(ResourceKind.FILE, "/b"))
        assert (a, b) == (3, 4)

    def test_install_explicit_number(self):
        proc = make_process()
        assert proc.install_fd(OpenFile(ResourceKind.FILE, "/a"), fd=7) == 7
        assert proc.get_fd(7).name == "/a"

    def test_dup_shares_description_and_refcount(self):
        proc = make_process()
        of = OpenFile(ResourceKind.FILE, "/a")
        fd = proc.install_fd(of)
        dup_fd = proc.dup_fd(fd)
        assert proc.get_fd(dup_fd) is of
        assert of.refcount == 2

    def test_dup_of_missing_fd(self):
        assert make_process().dup_fd(42) is None

    def test_remove_decrements_refcount(self):
        proc = make_process()
        of = OpenFile(ResourceKind.FILE, "/a")
        fd = proc.install_fd(of)
        removed = proc.remove_fd(fd)
        assert removed is of
        assert of.refcount == 0
        assert proc.remove_fd(fd) is None


class TestProcessState:
    def test_alive(self):
        proc = make_process()
        assert proc.alive()
        proc.state = ProcessState.EXITED
        assert not proc.alive()

    def test_environ_text(self):
        proc = make_process()
        assert proc.environ_text() == "A=1\0B=2\0"

    def test_repr(self):
        assert "pid=1" in repr(make_process())
