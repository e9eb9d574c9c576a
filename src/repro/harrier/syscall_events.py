"""Syscall event generation and taint side effects.

Bridges kernel syscalls to the analysis events of paper section 6.1:

* *before* a call executes, semantic events are emitted (execve, clone,
  open, connect, write...) so the analysis can veto it ("Harrier will
  interrupt the execution of the program and wait until Secpert analysis
  is done", section 7.1);
* *after* a call completes, taint effects are applied (read() tags the
  buffer with the resource's data source; resolve() tags its result with
  the hosts-file source, which the routine short circuit later fixes up).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.harrier.bbfreq import CodeExecutionPatterns
from repro.harrier.content import sniff_content
from repro.harrier.config import HarrierConfig
from repro.harrier.dataflow import InstructionDataFlow
from repro.harrier.events import (
    DataTransferEvent,
    MemoryEvent,
    ProcessEvent,
    ResourceAccessEvent,
    ResourceId,
    SecurityEvent,
)
from repro.harrier.state import ProcessShadow
from repro.kernel.process import OpenFile, Process, ResourceKind
from repro.kernel.syscalls import (
    SYS_BRK,
    SYS_CHMOD,
    SYS_CLONE,
    SYS_CREAT,
    SYS_EXECVE,
    SYS_FORK,
    SYS_MKNOD,
    SYS_OPEN,
    SYS_READ,
    SYS_RESOLVE,
    SYS_SOCKETCALL,
    SYS_UNLINK,
    SYS_WRITE,
    syscall_name,
)
from repro.taint.tags import EMPTY, DataSource, TagSet

Args = Tuple[int, int, int, int, int]

_UNKNOWN = TagSet.of(DataSource.UNKNOWN)
_HOSTS_FILE_TAG = TagSet.of(DataSource.FILE, "/etc/hosts")
_USER_INPUT = TagSet.of(DataSource.USER_INPUT)

#: fd kind -> data-source tag applied to bytes read from it.
_READ_SOURCE = {
    ResourceKind.FILE: DataSource.FILE,
    ResourceKind.DIRECTORY: DataSource.FILE,
    ResourceKind.FIFO: DataSource.FILE,
    ResourceKind.SOCKET: DataSource.SOCKET,
}


class SyscallEventGenerator:
    def __init__(
        self,
        config: HarrierConfig,
        dataflow: InstructionDataFlow,
        bbfreq: CodeExecutionPatterns,
        provenance=None,
    ) -> None:
        self.config = config
        self.dataflow = dataflow
        self.bbfreq = bbfreq
        #: Optional ProvenanceRecorder: taint introductions at syscall
        #: boundaries become evidence-trail source records.
        self.provenance = provenance

    #: Frequency reported when BB counting is disabled: "no rarity
    #: evidence", so the rare-code severity upgrade can never fire.
    _FREQUENCY_UNKNOWN = 1 << 30

    # -- shared helpers ------------------------------------------------------
    def _code_context(self, shadow: ProcessShadow) -> Tuple[int, str]:
        """An event's ``frequency`` and ``address``: those of the last
        application block (section 7.4)."""
        if self.config.track_bb_frequency:
            return self.bbfreq.event_context(shadow)
        return self._FREQUENCY_UNKNOWN, "0"

    def _path_origin(self, shadow: ProcessShadow,
                     info: Dict[str, object]) -> TagSet:
        """Tags of the path string ``describe`` decoded: one cell per
        character, so the cells before its NUL are ``len(path)``."""
        if not self.config.track_dataflow:
            return _UNKNOWN
        ptr = info.get("path_ptr")
        if ptr is None:
            return EMPTY
        return shadow.memory.union_of_range(
            ptr, len(info["path"])  # type: ignore[arg-type]
        )

    def _buffer_tags(
        self, shadow: ProcessShadow, buf: int, count: int
    ) -> TagSet:
        if not self.config.track_dataflow:
            return _UNKNOWN
        return shadow.memory.union_of_range(buf, count)

    @staticmethod
    def _fd_origin(open_file: Optional[OpenFile]) -> TagSet:
        if open_file is None:
            return EMPTY
        return open_file.meta.get("origin", EMPTY)  # type: ignore[return-value]

    @staticmethod
    def _source_origins(shadow: ProcessShadow, data_tags: TagSet) -> tuple:
        """(tag, origin-of-that-resource's-name) pairs for file/socket tags."""
        pairs = []
        for tag in data_tags:
            if tag.source in (DataSource.FILE, DataSource.SOCKET) and tag.name:
                origin = shadow.resource_origins.get(
                    (tag.source, tag.name), EMPTY
                )
                pairs.append((tag, origin))
        return tuple(pairs)

    @staticmethod
    def _remember_origin(
        shadow: ProcessShadow, source: DataSource, name: str, origin: TagSet
    ) -> None:
        shadow.resource_origins[(source, name)] = origin

    @staticmethod
    def _source_server(shadow: ProcessShadow,
                       data_tags: TagSet) -> Tuple[Optional[str], TagSet]:
        """Server socket address and its origin when the data came via
        our listener, else ``(None, EMPTY)``."""
        for tag in data_tags:
            if tag.source is DataSource.SOCKET and tag.name:
                entry = shadow.server_sockets.get(tag.name)
                if entry is not None:
                    return entry
        return None, EMPTY

    # -- pre-execution events ---------------------------------------------------
    def pre_events(
        self,
        proc: Process,
        shadow: ProcessShadow,
        now: int,
        sysno: int,
        args: Args,
        info: Dict[str, object],
    ) -> List[SecurityEvent]:
        if sysno in (SYS_EXECVE, SYS_OPEN, SYS_CREAT, SYS_UNLINK,
                     SYS_CHMOD, SYS_MKNOD):
            return self._path_access_event(proc, shadow, now, sysno, info)
        if sysno in (SYS_FORK, SYS_CLONE):
            return self._clone_event(proc, shadow, now)
        if sysno == SYS_WRITE:
            return self._write_event(proc, shadow, now, "SYS_write", info)
        if sysno == SYS_SOCKETCALL:
            return self._socketcall_pre(proc, shadow, now, args, info)
        return []

    def _path_access_event(
        self,
        proc: Process,
        shadow: ProcessShadow,
        now: int,
        sysno: int,
        info: Dict[str, object],
    ) -> List[SecurityEvent]:
        path = info.get("path")
        if path is None:
            return []
        origin = self._path_origin(shadow, info)
        info["_origin_tags"] = origin  # reused by post_effects
        event = ResourceAccessEvent(
            proc.pid, now - proc.start_time, *self._code_context(shadow),
            syscall_name(sysno),
            resource=ResourceId(ResourceKind.FILE, str(path)),
            origin=origin,
        )
        return [event]

    def _clone_event(
        self, proc: Process, shadow: ProcessShadow, now: int
    ) -> List[SecurityEvent]:
        shadow.clone_times.append(now)
        window = self.config.process_rate_window
        recent = sum(1 for t in shadow.clone_times if now - t <= window)
        event = ProcessEvent(
            proc.pid, now - proc.start_time, *self._code_context(shadow),
            "SYS_clone",
            total_created=len(shadow.clone_times),
            recent_created=recent,
            window=window,
        )
        return [event]

    def _write_event(
        self,
        proc: Process,
        shadow: ProcessShadow,
        now: int,
        call_name: str,
        info: Dict[str, object],
    ) -> List[SecurityEvent]:
        open_file: Optional[OpenFile] = info.get("open_file")  # type: ignore
        if open_file is None:
            return []
        if open_file.kind is ResourceKind.CONSOLE:
            # Writes to the terminal are not a resource boundary the policy
            # watches (every program prints); reads from stdin still tag.
            return []
        buf = int(info.get("buf", 0))
        count = int(info.get("count", 0))
        server = open_file.meta.get("server")
        data_tags = self._buffer_tags(shadow, buf, count)
        # The bytes the kernel decoded for this call: the handler writes
        # the same ones after the analysis lets the call through.
        content = sniff_content(info.get("data", b""))  # type: ignore[arg-type]
        source_server, source_server_origin = self._source_server(
            shadow, data_tags
        )
        event = DataTransferEvent(
            proc.pid, now - proc.start_time, *self._code_context(shadow),
            call_name,
            direction="write",
            resource=ResourceId(open_file.kind, open_file.name),
            data_tags=data_tags,
            resource_origin=self._fd_origin(open_file),
            length=count,
            server_socket=server,  # type: ignore[arg-type]
            server_socket_origin=open_file.meta.get(
                "server_origin", EMPTY
            ),  # type: ignore[arg-type]
            source_origins=self._source_origins(shadow, data_tags),
            source_server_socket=source_server,
            source_server_origin=source_server_origin,
            content_type=content,
        )
        return [event]

    def _socketcall_pre(
        self,
        proc: Process,
        shadow: ProcessShadow,
        now: int,
        args: Args,
        info: Dict[str, object],
    ) -> List[SecurityEvent]:
        sub = info.get("socketcall")
        if sub == "send":
            return self._write_event(
                proc, shadow, now, "SYS_socketcall:send", info
            )
        if sub in ("connect", "bind"):
            sockaddr_ptr = info.get("sockaddr_ptr")
            if sockaddr_ptr is None:
                return []
            origin = self._sockaddr_origin(shadow, int(sockaddr_ptr))
            info["_origin_tags"] = origin
            event = ResourceAccessEvent(
                proc.pid, now - proc.start_time, *self._code_context(shadow),
                f"SYS_socketcall:{sub}",
                resource=ResourceId(
                    ResourceKind.SOCKET, str(info.get("addr_str", "?"))
                ),
                origin=origin,
            )
            return [event]
        if sub == "listen":
            open_file = proc.get_fd(int(info.get("fd", -1)))
            if open_file is None:
                return []
            event = ResourceAccessEvent(
                proc.pid, now - proc.start_time, *self._code_context(shadow),
                "SYS_socketcall:listen",
                resource=ResourceId(ResourceKind.SOCKET, open_file.name),
                origin=self._fd_origin(open_file),
            )
            return [event]
        return []

    def _sockaddr_origin(self, shadow: ProcessShadow, ptr: int) -> TagSet:
        """Provenance of the socket address value (port + ip cells)."""
        if not self.config.track_dataflow:
            return _UNKNOWN
        return shadow.memory.get(ptr + 1).union(shadow.memory.get(ptr + 2))

    # -- post-execution effects ---------------------------------------------------
    def post_effects(
        self,
        proc: Process,
        shadow: ProcessShadow,
        now: int,
        sysno: int,
        args: Args,
        result: int,
        info: Dict[str, object],
    ) -> List[SecurityEvent]:
        events: List[SecurityEvent] = []
        if self.config.track_dataflow:
            # Kernel-produced return values carry no program data...
            shadow.regs.set("eax", EMPTY)
            if sysno == SYS_RESOLVE and result >= 0:
                # ...except resolution results, which come from the DNS
                # backing store (this is the section 7.2 semantic gap the
                # routine short circuit corrects at RET time).
                shadow.regs.set("eax", _HOSTS_FILE_TAG)
                if self.provenance is not None:
                    self.provenance.record_source(
                        _HOSTS_FILE_TAG, pid=proc.pid,
                        tick=now - proc.start_time,
                        resource="/etc/hosts", via="SYS_resolve",
                    )

        if sysno in (SYS_OPEN, SYS_CREAT) and result >= 0:
            open_file = info.get("open_file")
            if isinstance(open_file, OpenFile):
                origin = info.get("_origin_tags", EMPTY)
                open_file.meta["origin"] = origin
                self._remember_origin(
                    shadow, DataSource.FILE, open_file.name, origin
                )
        elif sysno == SYS_BRK and args[0] != 0:
            events.extend(self._brk_event(proc, shadow, now, args[0]))
        elif sysno == SYS_READ and result > 0:
            events.extend(
                self._read_effects(proc, shadow, now, "SYS_read", result, info)
            )
        elif sysno == SYS_SOCKETCALL:
            events.extend(
                self._socketcall_post(proc, shadow, now, result, info)
            )
        return events

    def _brk_event(
        self, proc: Process, shadow: ProcessShadow, now: int, new_brk: int
    ) -> List[SecurityEvent]:
        from repro.isa.memory import HEAP_BASE

        previous = int(proc.meta.get("harrier.prev_brk", HEAP_BASE))
        delta = new_brk - previous
        proc.meta["harrier.prev_brk"] = new_brk
        if delta <= 0:
            return []
        event = MemoryEvent(
            proc.pid, now - proc.start_time, *self._code_context(shadow),
            "SYS_brk",
            total_allocated=max(new_brk - HEAP_BASE, 0),
            delta=delta,
        )
        return [event]

    def _read_effects(
        self,
        proc: Process,
        shadow: ProcessShadow,
        now: int,
        call_name: str,
        nread: int,
        info: Dict[str, object],
    ) -> List[SecurityEvent]:
        open_file: Optional[OpenFile] = info.get("open_file")  # type: ignore
        if open_file is None:
            return []
        buf = int(info.get("buf", 0))
        data_tags = self._tag_for_read(proc, open_file)
        if self.config.track_dataflow:
            shadow.memory.set_range(buf, nread, data_tags)
            if self.provenance is not None:
                self.provenance.record_source(
                    data_tags, pid=proc.pid, tick=now - proc.start_time,
                    resource=open_file.name, via=call_name,
                )
        effective = data_tags if self.config.track_dataflow else _UNKNOWN
        source_server, source_server_origin = self._source_server(
            shadow, effective
        )
        event = DataTransferEvent(
            proc.pid, now - proc.start_time, *self._code_context(shadow),
            call_name,
            direction="read",
            resource=ResourceId(open_file.kind, open_file.name),
            data_tags=effective,
            resource_origin=self._fd_origin(open_file),
            length=nread,
            server_socket=open_file.meta.get("server"),  # type: ignore
            server_socket_origin=open_file.meta.get("server_origin", EMPTY),  # type: ignore
            source_origins=self._source_origins(shadow, effective),
            source_server_socket=source_server,
            source_server_origin=source_server_origin,
            content_type=sniff_content(info.get("data", b"") or b""),
        )
        return [event]

    def _tag_for_read(self, proc: Process, open_file: OpenFile) -> TagSet:
        if open_file.kind is ResourceKind.CONSOLE:
            if self.config.complete_dataflow:
                return _USER_INPUT
            # Incomplete-prototype mode: the paper's prototype mis-attributed
            # console input to the program binary (the pico anecdote).
            return self.dataflow.binary_tag(proc.command)
        source = _READ_SOURCE.get(open_file.kind)
        if source is None:
            return EMPTY
        return TagSet.of(source, open_file.name)

    def _socketcall_post(
        self,
        proc: Process,
        shadow: ProcessShadow,
        now: int,
        result: int,
        info: Dict[str, object],
    ) -> List[SecurityEvent]:
        sub = info.get("socketcall")
        if sub == "recv" and result > 0:
            return self._read_effects(
                proc, shadow, now, "SYS_socketcall:recv", result, info
            )
        if sub in ("connect", "bind") and result >= 0:
            open_file = info.get("open_file")
            if isinstance(open_file, OpenFile):
                origin = info.get("_origin_tags", EMPTY)
                open_file.meta["origin"] = origin
                self._remember_origin(
                    shadow, DataSource.SOCKET, open_file.name, origin
                )
        elif sub == "accept" and result >= 0:
            open_file = info.get("open_file")
            listener = info.get("listener_open")
            if isinstance(open_file, OpenFile):
                open_file.meta["origin"] = EMPTY
                open_file.meta["server"] = info.get("listener_addr")
                server_origin = EMPTY
                if isinstance(listener, OpenFile):
                    server_origin = listener.meta.get("origin", EMPTY)
                    open_file.meta["server_origin"] = server_origin
                self._remember_origin(
                    shadow, DataSource.SOCKET, open_file.name, EMPTY
                )
                shadow.server_sockets[open_file.name] = (
                    info.get("listener_addr"),
                    server_origin,
                )
        return []
