"""Errno constants and kernel-level exceptions.

Syscalls return negative errno values on failure (the Linux i386
convention), so guest code tests ``cmp eax, 0 / jl error``.
"""

from __future__ import annotations

# Linux errno numbers (the subset the simulated kernel uses).
EPERM = 1
ENOENT = 2
ESRCH = 3
EIO = 5
EBADF = 9
EAGAIN = 11
ENOMEM = 12
EACCES = 13
EFAULT = 14
EEXIST = 17
ENOTDIR = 20
EISDIR = 21
EINVAL = 22
ENFILE = 23
EMFILE = 24
ENOSPC = 28
EPIPE = 32
ENOSYS = 38
ECONNRESET = 104
ENOTSOCK = 88
EOPNOTSUPP = 95
EADDRINUSE = 98
ECONNREFUSED = 111
EHOSTUNREACH = 113
ENOEXEC = 8

ERRNO_NAMES = {
    EPERM: "EPERM",
    ENOENT: "ENOENT",
    ESRCH: "ESRCH",
    EIO: "EIO",
    ENOEXEC: "ENOEXEC",
    EBADF: "EBADF",
    EAGAIN: "EAGAIN",
    ENOMEM: "ENOMEM",
    EACCES: "EACCES",
    EFAULT: "EFAULT",
    EEXIST: "EEXIST",
    ENOTDIR: "ENOTDIR",
    EISDIR: "EISDIR",
    EINVAL: "EINVAL",
    ENFILE: "ENFILE",
    EMFILE: "EMFILE",
    ENOSPC: "ENOSPC",
    EPIPE: "EPIPE",
    ENOSYS: "ENOSYS",
    ECONNRESET: "ECONNRESET",
    ENOTSOCK: "ENOTSOCK",
    EOPNOTSUPP: "EOPNOTSUPP",
    EADDRINUSE: "EADDRINUSE",
    ECONNREFUSED: "ECONNREFUSED",
    EHOSTUNREACH: "EHOSTUNREACH",
}


def errno_name(code: int) -> str:
    """Human-readable name for a (positive) errno value."""
    return ERRNO_NAMES.get(code, f"errno{code}")


class WouldBlock(Exception):
    """Raised by a syscall handler that cannot complete yet.

    The kernel parks the process and retries the same handler on later
    scheduler passes; handlers are written to be idempotent until they
    succeed.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason
