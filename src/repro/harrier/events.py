"""Events Harrier sends to the analysis side (paper section 6.1).

Two shapes, exactly as the paper describes:

* :class:`ResourceAccessEvent` — a resource is being accessed (execve,
  open, connect, bind, clone...).  Carries the call name, the resource
  name and type, the *origin* of the resource identifier (the tag set of
  the name string — this is how "hardcoded" is detected), plus time,
  code frequency, and code address.
* :class:`DataTransferEvent` — data is crossing a resource boundary
  (read/write/send/recv).  Carries the source/target resources, the tag
  set of the data itself, and the origin of the target's identifier.

Tag sets rather than single origins: the paper's events use multifield
CLIPS slots for origin name/type because a value can derive from several
sources at once.

An event is also the record of the CLIPS fact Secpert asserts for it:
the templates in :mod:`repro.secpert.facts` read each slot from the
event in place, so an event is built once and never copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.kernel.process import ResourceKind
from repro.taint.tags import TagSet


@dataclass(frozen=True)
class ResourceId:
    """A named resource of a given kind (file path, socket address...)."""

    kind: ResourceKind
    name: str

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.name}"


@dataclass(frozen=True)
class SecurityEvent:
    """Common fields attached to every event (paper section 6.1.2)."""

    pid: int
    #: Virtual time of the event.
    time: int
    #: Execution count of the application basic block that (transitively)
    #: triggered the call — the "last app BB" scheme of section 7.4.
    frequency: int
    #: Address (hex string) of that application basic block.
    address: str
    #: e.g. "SYS_execve", "SYS_write", "socketcall:connect".
    call_name: str


@dataclass(frozen=True)
class ResourceAccessEvent(SecurityEvent):
    resource: ResourceId
    #: Tag set of the resource *identifier* (the name string's provenance).
    origin: TagSet = field(default_factory=TagSet.empty)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"[{self.time}] pid{self.pid} {self.call_name} {self.resource} "
            f"origin={self.origin} freq={self.frequency} @{self.address}"
        )


@dataclass(frozen=True)
class DataTransferEvent(SecurityEvent):
    #: 'read' (resource -> memory) or 'write' (memory -> resource).
    direction: str = "write"
    resource: ResourceId = None  # type: ignore[assignment]
    #: Provenance of the transferred bytes.
    data_tags: TagSet = field(default_factory=TagSet.empty)
    #: Provenance of the resource identifier (file name / socket address).
    resource_origin: TagSet = field(default_factory=TagSet.empty)
    #: Bytes moved.
    length: int = 0
    #: When the resource is a connection accepted by a listening socket,
    #: the server socket's own address ("this program has opened a socket
    #: for remote connections", as the pma warnings put it) and the origin
    #: of that server address.
    server_socket: Optional[str] = None
    server_socket_origin: TagSet = field(default_factory=TagSet.empty)
    #: For each FILE/SOCKET tag in ``data_tags``, the origin of that
    #: *source resource's name* (paper 6.1.2: "the source resource ID data
    #: source") as (tag, origin-tagset) pairs.
    source_origins: tuple = ()
    #: When the *data* came in over a connection accepted by this
    #: program's listening socket: that server socket's address + origin.
    source_server_socket: Optional[str] = None
    source_server_origin: TagSet = field(default_factory=TagSet.empty)
    #: Content classification of the transferred bytes (section 10 item 5;
    #: see :mod:`repro.harrier.content`).
    content_type: str = "empty"

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"[{self.time}] pid{self.pid} {self.call_name} {self.direction} "
            f"{self.resource} data={self.data_tags} "
            f"origin={self.resource_origin}"
        )


@dataclass(frozen=True)
class ProcessEvent(SecurityEvent):
    """Process-lifecycle observation (clone/fork) for resource-abuse rules."""

    #: Total processes this monitored program has created so far.
    total_created: int = 0
    #: Creations within the trailing rate window.
    recent_created: int = 0
    window: int = 0

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"[{self.time}] pid{self.pid} {self.call_name} "
            f"total={self.total_created} recent={self.recent_created}"
        )


@dataclass(frozen=True)
class MemoryEvent(SecurityEvent):
    """Heap-growth observation (brk) for memory-abuse rules.

    Paper section 10 (future work item 4) asks for "new rules to support
    different types of resource abuse such as memory"; Trojan.Vundo's
    signature behaviour is draining virtual memory (section 2.1).
    """

    #: Total heap cells allocated since program start.
    total_allocated: int = 0
    #: Growth in this brk call.
    delta: int = 0

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"[{self.time}] pid{self.pid} {self.call_name} "
            f"total={self.total_allocated} delta={self.delta}"
        )
