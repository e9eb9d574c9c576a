"""Processes and file descriptors."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.cpu import CPU
from repro.isa.memory import FlatMemory
from repro.kernel.filesystem import Node, O_APPEND, O_RDONLY, O_RDWR, O_WRONLY
from repro.kernel.network import Connection, Listener


class ResourceKind(enum.Enum):
    """What a file descriptor refers to — the policy's resource types."""

    FILE = "FILE"
    DIRECTORY = "DIRECTORY"
    FIFO = "FIFO"
    SOCKET = "SOCKET"
    CONSOLE = "CONSOLE"


@dataclass(frozen=True)
class ResourceRef:
    """A (kind, name) pair identifying the resource behind an fd."""

    kind: ResourceKind
    name: str

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.name}"


class SocketState(enum.Enum):
    CREATED = "created"
    BOUND = "bound"
    LISTENING = "listening"
    CONNECTED = "connected"


class OpenFile:
    """A shared file description (dup/fork share the same object)."""

    __slots__ = (
        "kind",
        "name",
        "node",
        "flags",
        "pos",
        "refcount",
        "connection",
        "listener",
        "socket_state",
        "bound_addr",
        "meta",
        "console_role",
    )

    def __init__(
        self,
        kind: ResourceKind,
        name: str,
        node: Optional[Node] = None,
        flags: int = O_RDONLY,
        console_role: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.name = name
        self.node = node
        self.flags = flags
        self.pos = 0
        self.refcount = 1
        self.connection: Optional[Connection] = None
        self.listener: Optional[Listener] = None
        self.socket_state = SocketState.CREATED
        self.bound_addr: Optional[Tuple[int, int]] = None
        #: Scratch space for the monitor (e.g. origin tags of the name).
        self.meta: Dict[str, object] = {}
        self.console_role = console_role  # 'stdin' | 'stdout' | 'stderr'

    # -- descriptions ------------------------------------------------------
    def resource(self) -> ResourceRef:
        return ResourceRef(self.kind, self.name)

    def readable(self) -> bool:
        if self.kind is ResourceKind.CONSOLE:
            return self.console_role == "stdin"
        accmode = self.flags & 0x3
        return accmode in (O_RDONLY, O_RDWR)

    def writable(self) -> bool:
        if self.kind is ResourceKind.CONSOLE:
            return self.console_role in ("stdout", "stderr")
        accmode = self.flags & 0x3
        return accmode in (O_WRONLY, O_RDWR)

    def appending(self) -> bool:
        return bool(self.flags & O_APPEND)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OpenFile({self.kind.value}, {self.name!r})"


class ProcessState(enum.Enum):
    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    EXITED = "exited"


@dataclass
class PendingSyscall:
    """A syscall that raised WouldBlock and awaits retry."""

    sysno: int
    args: Tuple[int, int, int, int, int]
    notified: bool = True  # pre-hook already fired


class Process:
    """One guest process."""

    def __init__(
        self,
        pid: int,
        ppid: int,
        memory: FlatMemory,
        cpu: CPU,
        command: str,
        argv: List[str],
        env: Dict[str, str],
        start_time: int = 0,
    ) -> None:
        self.pid = pid
        self.ppid = ppid
        self.memory = memory
        self.cpu = cpu
        self.command = command
        self.argv = list(argv)
        self.env = dict(env)
        self.start_time = start_time
        self.state = ProcessState.RUNNABLE
        self.exit_code: Optional[int] = None
        self.wake_time = 0
        self.pending: Optional[PendingSyscall] = None
        self.fds: Dict[int, OpenFile] = {}
        self.next_fd = 3
        self.brk = 0
        #: Filled by the loader.
        self.image_map: Optional["ImageMap"] = None  # noqa: F821
        #: The translated-block cache for this process's image layout
        #: (set by the kernel at spawn).  Shared across fork
        #: (plans — including their taint-liveness summaries — are
        #: immutable); swapped by the kernel on execve.
        self.block_cache: Optional["BlockCache"] = None  # noqa: F821
        #: Scratch space for the monitor (shadow state lives here; fork
        #: duplicates it via ``ProcessShadow.copy``, which shares shadow
        #: memory pages copy-on-write between parent and child).
        self.meta: Dict[str, object] = {}
        #: True once the process was killed by monitor/user decision.
        self.killed_by_monitor = False

    # -- fd management -----------------------------------------------------
    def install_fd(self, open_file: OpenFile, fd: Optional[int] = None) -> int:
        if fd is None:
            fd = self.next_fd
            self.next_fd += 1
        self.fds[fd] = open_file
        return fd

    def get_fd(self, fd: int) -> Optional[OpenFile]:
        return self.fds.get(fd)

    def dup_fd(self, fd: int) -> Optional[int]:
        open_file = self.fds.get(fd)
        if open_file is None:
            return None
        open_file.refcount += 1
        return self.install_fd(open_file)

    def remove_fd(self, fd: int) -> Optional[OpenFile]:
        open_file = self.fds.pop(fd, None)
        if open_file is not None:
            open_file.refcount -= 1
        return open_file

    def alive(self) -> bool:
        return self.state is not ProcessState.EXITED

    def environ_text(self) -> str:
        """/proc/<pid>/environ-style rendering (NUL-separated)."""
        return "".join(f"{k}={v}\0" for k, v in self.env.items())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Process(pid={self.pid}, cmd={self.command!r}, "
            f"state={self.state.value})"
        )
