"""System call numbers, decoding, and handlers.

Numbers follow the Linux i386 table the paper's Harrier hooks (execve=11,
clone=120, socketcall=102, ...) plus one synthetic call, ``SYS_resolve``
(400), which backs the guest libc's ``gethostbyname``.  The resolver reads
the simulated DNS, so the *returned address* does not carry the taint of
the *queried name* — exactly the semantic gap of paper section 7.2 that
Harrier's routine-level short circuit exists to bridge.

Each handler returns ``(result, info)``; ``info`` is merged into the
event-description dict handed to the monitor hooks.  Guest memory is
decoded once per call: :meth:`SyscallTable.describe` reads the path,
execve argv, host name or written bytes, the monitor's pre-event uses
them, and :meth:`SyscallTable.dispatch` hands the same dict to the
handler.
Handlers raise :class:`WouldBlock` when they must wait (socket reads,
accept, FIFO reads) and are idempotent until they complete.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.kernel import errors
from repro.kernel.errors import WouldBlock
from repro.kernel.filesystem import (
    NodeKind,
    O_CREAT,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
)
from repro.kernel.network import AF_INET
from repro.kernel.process import (
    OpenFile,
    Process,
    ProcessState,
    ResourceKind,
    SocketState,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

# -- syscall numbers (Linux i386 + one synthetic) ---------------------------
SYS_EXIT = 1
SYS_FORK = 2
SYS_READ = 3
SYS_WRITE = 4
SYS_OPEN = 5
SYS_CLOSE = 6
SYS_CREAT = 8
SYS_UNLINK = 10
SYS_LSEEK = 19
SYS_EXECVE = 11
SYS_TIME = 13
SYS_MKNOD = 14
SYS_CHMOD = 15
SYS_GETPID = 20
SYS_DUP = 41
SYS_BRK = 45
SYS_SOCKETCALL = 102
SYS_CLONE = 120
SYS_NANOSLEEP = 162
#: Synthetic: DNS/hosts resolution behind the libc gethostbyname routine.
SYS_RESOLVE = 400

SYSCALL_NAMES: Dict[int, str] = {
    SYS_EXIT: "SYS_exit",
    SYS_FORK: "SYS_fork",
    SYS_READ: "SYS_read",
    SYS_WRITE: "SYS_write",
    SYS_OPEN: "SYS_open",
    SYS_CLOSE: "SYS_close",
    SYS_CREAT: "SYS_creat",
    SYS_UNLINK: "SYS_unlink",
    SYS_LSEEK: "SYS_lseek",
    SYS_EXECVE: "SYS_execve",
    SYS_TIME: "SYS_time",
    SYS_MKNOD: "SYS_mknod",
    SYS_CHMOD: "SYS_chmod",
    SYS_GETPID: "SYS_getpid",
    SYS_DUP: "SYS_dup",
    SYS_BRK: "SYS_brk",
    SYS_SOCKETCALL: "SYS_socketcall",
    SYS_CLONE: "SYS_clone",
    SYS_NANOSLEEP: "SYS_nanosleep",
    SYS_RESOLVE: "SYS_resolve",
}

# socketcall(2) sub-call numbers.
SC_SOCKET = 1
SC_BIND = 2
SC_CONNECT = 3
SC_LISTEN = 4
SC_ACCEPT = 5
SC_SEND = 9
SC_RECV = 10

SOCKETCALL_NAMES: Dict[int, str] = {
    SC_SOCKET: "socket",
    SC_BIND: "bind",
    SC_CONNECT: "connect",
    SC_LISTEN: "listen",
    SC_ACCEPT: "accept",
    SC_SEND: "send",
    SC_RECV: "recv",
}

#: Sentinel result meaning "do not write eax" (exit / successful execve).
NO_RESULT = None

S_IFIFO = 0o010000

Args = Tuple[int, int, int, int, int]


def syscall_name(sysno: int) -> str:
    return SYSCALL_NAMES.get(sysno, f"SYS_{sysno}")


class SyscallTable:
    """Decodes and executes system calls against a kernel."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._handlers = {
            SYS_EXIT: self._sys_exit,
            SYS_FORK: self._sys_fork,
            SYS_CLONE: self._sys_fork,
            SYS_READ: self._sys_read,
            SYS_WRITE: self._sys_write,
            SYS_OPEN: self._sys_open,
            SYS_CREAT: self._sys_creat,
            SYS_CLOSE: self._sys_close,
            SYS_LSEEK: self._sys_lseek,
            SYS_UNLINK: self._sys_unlink,
            SYS_EXECVE: self._sys_execve,
            SYS_TIME: self._sys_time,
            SYS_MKNOD: self._sys_mknod,
            SYS_CHMOD: self._sys_chmod,
            SYS_GETPID: self._sys_getpid,
            SYS_DUP: self._sys_dup,
            SYS_BRK: self._sys_brk,
            SYS_SOCKETCALL: self._sys_socketcall,
            SYS_NANOSLEEP: self._sys_nanosleep,
            SYS_RESOLVE: self._sys_resolve,
        }

    # -- decode (no side effects; feeds the monitor's pre-event) -----------
    def describe(self, proc: Process, sysno: int, args: Args) -> Dict[str, object]:
        info: Dict[str, object] = {"name": syscall_name(sysno)}
        mem = proc.memory
        try:
            if sysno in (SYS_OPEN, SYS_CREAT, SYS_EXECVE, SYS_MKNOD,
                         SYS_CHMOD, SYS_UNLINK):
                info["path_ptr"] = args[0]
                info["path"] = mem.read_cstring(args[0])
            if sysno == SYS_EXECVE:
                info["argv"] = self._read_ptr_array_strings(proc, args[1])
            if sysno in (SYS_READ, SYS_WRITE):
                info["fd"] = args[0]
                info["buf"] = args[1]
                info["count"] = args[2]
                open_file = proc.get_fd(args[0])
                if open_file is not None:
                    info["resource"] = open_file.resource()
                    info["open_file"] = open_file
                    if sysno == SYS_WRITE:
                        info["data"] = mem.read_bytes(args[1], max(args[2], 0))
            if sysno == SYS_RESOLVE:
                info["name_ptr"] = args[0]
                info["hostname"] = mem.read_cstring(args[0])
            if sysno == SYS_SOCKETCALL:
                info.update(self._describe_socketcall(proc, args))
        except Exception as exc:  # bad pointers etc.
            info["decode_error"] = str(exc)
        return info

    def _describe_socketcall(self, proc: Process, args: Args) -> Dict[str, object]:
        call, argp = args[0], args[1]
        mem = proc.memory
        sub_args = [mem.read(argp + i) for i in range(4)]
        info: Dict[str, object] = {
            "socketcall": SOCKETCALL_NAMES.get(call, f"sub{call}"),
            "sub_args": tuple(sub_args),
        }
        if call in (SC_BIND, SC_CONNECT):
            fd, sockaddr_ptr = sub_args[0], sub_args[1]
            family = mem.read(sockaddr_ptr)
            port = mem.read(sockaddr_ptr + 1)
            ip = mem.read(sockaddr_ptr + 2)
            info.update(
                fd=fd,
                sockaddr_ptr=sockaddr_ptr,
                family=family,
                port=port,
                ip=ip,
                addr_str=self.kernel.network.format_addr(ip, port),
            )
        elif call in (SC_SEND, SC_RECV):
            fd, buf, count = sub_args[0], sub_args[1], sub_args[2]
            info.update(fd=fd, buf=buf, count=count)
            open_file = proc.get_fd(fd)
            if open_file is not None:
                info["resource"] = open_file.resource()
                info["open_file"] = open_file
                if call == SC_SEND:
                    info["data"] = mem.read_bytes(buf, max(count, 0))
        elif call in (SC_LISTEN, SC_ACCEPT):
            info["fd"] = sub_args[0]
            open_file = proc.get_fd(sub_args[0])
            if open_file is not None:
                info["resource"] = open_file.resource()
        return info

    def _read_ptr_array_strings(self, proc: Process, array_ptr: int) -> List[str]:
        out: List[str] = []
        if array_ptr == 0:
            return out
        mem = proc.memory
        for i in range(64):
            ptr = mem.read(array_ptr + i)
            if ptr == 0:
                break
            out.append(mem.read_cstring(ptr))
        return out

    # -- dispatch -----------------------------------------------------------
    def dispatch(
        self, proc: Process, sysno: int, args: Args,
        info: Dict[str, object],
    ) -> Tuple[Optional[int], Dict[str, object]]:
        """Execute one call.  ``info`` is what :meth:`describe` decoded
        for it, and handlers take the call's path, execve argv, host
        name or written bytes from there: guest memory is unchanged in
        between, because the process does not run until its call
        completes.  A string or argv ``describe`` could not read is
        EFAULT."""
        handler = self._handlers.get(sysno)
        if handler is None:
            return -errors.ENOSYS, {}
        return handler(proc, args, info)

    # -- process lifecycle -----------------------------------------------------
    def _sys_exit(self, proc: Process, args: Args, info):
        self.kernel.exit_process(proc, args[0])
        return NO_RESULT, {"status": args[0]}

    def _sys_fork(self, proc: Process, args: Args, info):
        child = self.kernel.fork_process(proc)
        return child.pid, {"child_pid": child.pid}

    def _sys_execve(self, proc: Process, args: Args, info):
        path = info.get("path")
        argv = info.get("argv")
        if path is None or argv is None:
            return -errors.EFAULT, {}
        env_entries = self._read_ptr_array_strings(proc, args[2])
        env: Dict[str, str] = {}
        for entry in env_entries:
            key, _, value = entry.partition("=")
            env[key] = value
        if not argv:
            argv = [path]
        result = self.kernel.exec_process(proc, path, argv, env)
        if result == 0:
            return NO_RESULT, {"path": path, "exec_argv": argv, "success": True}
        return result, {"path": path, "exec_argv": argv, "success": False}

    def _sys_getpid(self, proc: Process, args: Args, info):
        return proc.pid, {}

    def _sys_time(self, proc: Process, args: Args, info):
        return self.kernel.now, {}

    def _sys_nanosleep(self, proc: Process, args: Args, info):
        ticks = max(args[0], 0)
        proc.state = ProcessState.SLEEPING
        proc.wake_time = self.kernel.now + ticks
        return 0, {"ticks": ticks}

    def _sys_brk(self, proc: Process, args: Args, info):
        if args[0] != 0:
            proc.brk = args[0]
        return proc.brk, {}

    # -- filesystem ---------------------------------------------------------
    def _sys_open(self, proc: Process, args: Args, info):
        return self._do_open(proc, args[0], args[1], info)

    def _sys_creat(self, proc: Process, args: Args, info):
        return self._do_open(proc, args[0], O_WRONLY | O_CREAT | O_TRUNC,
                             info)

    def _do_open(self, proc: Process, path_ptr: int, flags: int, info):
        path = info.get("path")
        if path is None:
            return -errors.EFAULT, {}
        environ = self._proc_environ_for(path)
        node, err = self.kernel.fs.resolve_open(path, flags, environ)
        if node is None:
            return err, {"path": path, "path_ptr": path_ptr}
        if node.kind is NodeKind.DIRECTORY:
            # Synthesize a listing snapshot so reads see directory contents.
            from repro.kernel.filesystem import Node

            listing = self.kernel.fs.listing(path)
            node = Node(NodeKind.FILE, data=listing.encode())
            kind = ResourceKind.DIRECTORY
        elif node.kind is NodeKind.FIFO:
            kind = ResourceKind.FIFO
        else:
            kind = ResourceKind.FILE
        open_file = OpenFile(kind, path, node=node, flags=flags)
        if kind is ResourceKind.FIFO:
            if open_file.readable():
                node.fifo_readers += 1
            if open_file.writable():
                node.fifo_writers += 1
        if open_file.appending() and node.kind is NodeKind.FILE:
            open_file.pos = len(node.data)
        fd = proc.install_fd(open_file)
        return fd, {
            "path": path,
            "path_ptr": path_ptr,
            "flags": flags,
            "fd": fd,
            "resource": open_file.resource(),
            "open_file": open_file,
        }

    def _proc_environ_for(self, path: str) -> Optional[str]:
        if not (path.startswith("/proc/") and path.endswith("/environ")):
            return None
        middle = path[len("/proc/"):-len("/environ")]
        if middle == "self":
            return None  # caller resolves pid; keep simple: unsupported
        try:
            pid = int(middle)
        except ValueError:
            return None
        target = self.kernel.procs.get(pid)
        if target is None:
            return None
        return target.environ_text()

    def _sys_close(self, proc: Process, args: Args, info):
        open_file = proc.remove_fd(args[0])
        if open_file is None:
            return -errors.EBADF, {}
        self.kernel.release_open_file(open_file)
        return 0, {"fd": args[0], "resource": open_file.resource()}

    def _sys_lseek(self, proc: Process, args: Args, info):
        fd, offset, whence = args[0], args[1], args[2]
        open_file = proc.get_fd(fd)
        if open_file is None:
            return -errors.EBADF, {}
        if open_file.kind not in (ResourceKind.FILE, ResourceKind.DIRECTORY):
            return -errors.EINVAL, {}
        size = len(open_file.node.data)
        if whence == 0:        # SEEK_SET
            new_pos = offset
        elif whence == 1:      # SEEK_CUR
            new_pos = open_file.pos + offset
        elif whence == 2:      # SEEK_END
            new_pos = size + offset
        else:
            return -errors.EINVAL, {}
        if new_pos < 0:
            return -errors.EINVAL, {}
        open_file.pos = new_pos
        return new_pos, {"fd": fd, "pos": new_pos}

    def _sys_unlink(self, proc: Process, args: Args, info):
        path = info.get("path")
        if path is None:
            return -errors.EFAULT, {}
        return self.kernel.fs.unlink(path), {"path": path, "path_ptr": args[0]}

    def _sys_mknod(self, proc: Process, args: Args, info):
        path = info.get("path")
        if path is None:
            return -errors.EFAULT, {}
        mode = args[1]
        if mode & S_IFIFO:
            result = self.kernel.fs.mkfifo(path, mode & 0o777)
        else:
            self.kernel.fs.create_file(path, mode=mode & 0o777)
            result = 0
        return result, {"path": path, "path_ptr": args[0], "mode": mode}

    def _sys_chmod(self, proc: Process, args: Args, info):
        path = info.get("path")
        if path is None:
            return -errors.EFAULT, {}
        return self.kernel.fs.chmod(path, args[1]), {
            "path": path,
            "path_ptr": args[0],
            "mode": args[1],
        }

    def _sys_dup(self, proc: Process, args: Args, info):
        new_fd = proc.dup_fd(args[0])
        if new_fd is None:
            return -errors.EBADF, {}
        return new_fd, {"fd": args[0], "new_fd": new_fd,
                        "resource": proc.fds[new_fd].resource()}

    # -- I/O ------------------------------------------------------------------
    def _sys_read(self, proc: Process, args: Args, info):
        return self._do_read(proc, args[0], args[1], args[2])

    def _sys_write(self, proc: Process, args: Args, info):
        return self._do_write(proc, args[0], args[1], args[2],
                              info.get("data"))

    def _do_read(self, proc: Process, fd: int, buf: int, count: int):
        open_file = proc.get_fd(fd)
        if open_file is None:
            return -errors.EBADF, {}
        if not open_file.readable():
            return -errors.EBADF, {}
        count = max(count, 0)
        kind = open_file.kind
        if kind is ResourceKind.CONSOLE:
            data = self.kernel.console.read_line(count)
        elif kind in (ResourceKind.FILE, ResourceKind.DIRECTORY):
            node = open_file.node
            data = bytes(node.data[open_file.pos:open_file.pos + count])
            open_file.pos += len(data)
        elif kind is ResourceKind.FIFO:
            node = open_file.node
            if not node.fifo_buffer:
                if node.fifo_writers > 0:
                    raise WouldBlock(f"fifo {open_file.name} empty")
                data = b""
            else:
                data = bytes(node.fifo_buffer[:count])
                del node.fifo_buffer[:count]
        elif kind is ResourceKind.SOCKET:
            conn = open_file.connection
            if conn is None:
                return -errors.ENOTSOCK, {}
            if not conn.incoming:
                if conn.open:
                    raise WouldBlock(f"socket {open_file.name} has no data")
                data = b""
            else:
                data = bytes(conn.incoming[:count])
                del conn.incoming[:count]
        else:  # pragma: no cover - exhaustive
            return -errors.EINVAL, {}
        proc.memory.write_bytes(buf, data)
        return len(data), {
            "fd": fd,
            "buf": buf,
            "count": count,
            "nread": len(data),
            "data": data,
            "resource": open_file.resource(),
            "open_file": open_file,
        }

    def _do_write(self, proc: Process, fd: int, buf: int, count: int,
                  data: bytes):
        """``data`` is the ``count`` bytes at ``buf``, as ``describe``
        read them for an open fd."""
        open_file = proc.get_fd(fd)
        if open_file is None:
            return -errors.EBADF, {}
        if not open_file.writable():
            return -errors.EBADF, {}
        count = max(count, 0)
        kind = open_file.kind
        info: Dict[str, object] = {
            "fd": fd,
            "buf": buf,
            "count": count,
            "data": data,
            "resource": open_file.resource(),
            "open_file": open_file,
        }
        if kind is ResourceKind.CONSOLE:
            self.kernel.console.write(proc.pid, data)
        elif kind is ResourceKind.FILE:
            node = open_file.node
            if open_file.appending():
                open_file.pos = len(node.data)
            end = open_file.pos + len(data)
            if end > len(node.data):
                node.data.extend(b"\0" * (end - len(node.data)))
            node.data[open_file.pos:end] = data
            open_file.pos = end
        elif kind is ResourceKind.FIFO:
            open_file.node.fifo_buffer.extend(data)
        elif kind is ResourceKind.SOCKET:
            conn = open_file.connection
            if conn is None or open_file.socket_state is not SocketState.CONNECTED:
                return -errors.ENOTSOCK, {}
            if not conn.open:
                return -errors.EPIPE, {}
            conn.send(data)
            if conn.accepted_via is not None:
                info["server_socket"] = conn.accepted_via
        else:
            return -errors.EINVAL, {}
        info["nwritten"] = len(data)
        return len(data), info

    # -- sockets ----------------------------------------------------------------
    def _sys_socketcall(self, proc: Process, args: Args, decoded):
        call, argp = args[0], args[1]
        mem = proc.memory
        sub = [mem.read(argp + i) for i in range(4)]
        name = SOCKETCALL_NAMES.get(call)
        base_info = {"socketcall": name or f"sub{call}"}
        if call == SC_SOCKET:
            result, info = self._sc_socket(proc, sub)
        elif call == SC_BIND:
            result, info = self._sc_bind(proc, sub)
        elif call == SC_CONNECT:
            result, info = self._sc_connect(proc, sub)
        elif call == SC_LISTEN:
            result, info = self._sc_listen(proc, sub)
        elif call == SC_ACCEPT:
            result, info = self._sc_accept(proc, sub)
        elif call == SC_SEND:
            result, info = self._do_write(proc, sub[0], sub[1], sub[2],
                                          decoded.get("data"))
        elif call == SC_RECV:
            result, info = self._do_read(proc, sub[0], sub[1], sub[2])
        else:
            return -errors.EINVAL, base_info
        info = {**base_info, **info}
        return result, info

    def _sc_socket(self, proc: Process, sub: List[int]):
        domain = sub[0]
        if domain != AF_INET:
            return -errors.EINVAL, {}
        open_file = OpenFile(
            ResourceKind.SOCKET, "socket:unbound", flags=O_RDWR
        )
        fd = proc.install_fd(open_file)
        return fd, {"fd": fd, "resource": open_file.resource()}

    def _read_sockaddr(self, proc: Process, ptr: int) -> Tuple[int, int, int]:
        mem = proc.memory
        return mem.read(ptr), mem.read(ptr + 1), mem.read(ptr + 2)

    def _sc_bind(self, proc: Process, sub: List[int]):
        fd, sockaddr_ptr = sub[0], sub[1]
        open_file = proc.get_fd(fd)
        if open_file is None or open_file.kind is not ResourceKind.SOCKET:
            return -errors.ENOTSOCK, {}
        family, port, ip = self._read_sockaddr(proc, sockaddr_ptr)
        open_file.bound_addr = (ip, port)
        open_file.socket_state = SocketState.BOUND
        addr_str = self.kernel.network.format_addr(ip, port)
        open_file.name = addr_str
        return 0, {
            "fd": fd,
            "sockaddr_ptr": sockaddr_ptr,
            "port": port,
            "ip": ip,
            "addr_str": addr_str,
            "resource": open_file.resource(),
            "open_file": open_file,
        }

    def _sc_connect(self, proc: Process, sub: List[int]):
        fd, sockaddr_ptr = sub[0], sub[1]
        open_file = proc.get_fd(fd)
        if open_file is None or open_file.kind is not ResourceKind.SOCKET:
            return -errors.ENOTSOCK, {}
        family, port, ip = self._read_sockaddr(proc, sockaddr_ptr)
        addr_str = self.kernel.network.format_addr(ip, port)
        conn = self.kernel.network.connect(
            ip, port, local_label=f"pid{proc.pid}"
        )
        if conn is None:
            return -errors.ECONNREFUSED, {
                "sockaddr_ptr": sockaddr_ptr,
                "addr_str": addr_str,
                "port": port,
                "ip": ip,
            }
        open_file.connection = conn
        open_file.socket_state = SocketState.CONNECTED
        open_file.name = addr_str
        return 0, {
            "fd": fd,
            "sockaddr_ptr": sockaddr_ptr,
            "port": port,
            "ip": ip,
            "addr_str": addr_str,
            "resource": open_file.resource(),
            "open_file": open_file,
        }

    def _sc_listen(self, proc: Process, sub: List[int]):
        fd = sub[0]
        open_file = proc.get_fd(fd)
        if open_file is None or open_file.kind is not ResourceKind.SOCKET:
            return -errors.ENOTSOCK, {}
        if open_file.bound_addr is None:
            return -errors.EINVAL, {}
        ip, port = open_file.bound_addr
        open_file.listener = self.kernel.network.listen(ip, port)
        open_file.socket_state = SocketState.LISTENING
        return 0, {
            "fd": fd,
            "addr_str": open_file.name,
            "resource": open_file.resource(),
            "open_file": open_file,
        }

    def _sc_accept(self, proc: Process, sub: List[int]):
        fd = sub[0]
        open_file = proc.get_fd(fd)
        if open_file is None or open_file.listener is None:
            return -errors.EINVAL, {}
        listener = open_file.listener
        if not listener.backlog:
            raise WouldBlock(f"accept on {open_file.name}")
        conn = listener.backlog.pop(0)
        conn.accepted_via = open_file.name
        new_open = OpenFile(ResourceKind.SOCKET, conn.peer_label, flags=O_RDWR)
        new_open.connection = conn
        new_open.socket_state = SocketState.CONNECTED
        new_fd = proc.install_fd(new_open)
        return new_fd, {
            "fd": fd,
            "new_fd": new_fd,
            "peer": conn.peer_label,
            "listener_addr": open_file.name,
            "listener_open": open_file,
            "resource": new_open.resource(),
            "open_file": new_open,
        }

    # -- name resolution ------------------------------------------------------
    def _sys_resolve(self, proc: Process, args: Args, info):
        hostname = info.get("hostname")
        if hostname is None:
            return -errors.EFAULT, {}
        ip = self.kernel.network.resolve(hostname)
        if ip is None:
            return -errors.EHOSTUNREACH, {"hostname": hostname}
        return ip, {"hostname": hostname, "name_ptr": args[0], "ip": ip}
