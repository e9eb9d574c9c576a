"""CLIPS fact templates for Secpert and event-to-fact conversion.

The templates mirror the assertions shown in paper appendix A.1: a
``system_call_access`` fact for resource accesses and a ``data_transfer``
fact for reads/writes, each carrying the resource identifier's provenance
(as a :class:`TagSet` — the CLIPS prototype used parallel multifield
slots), plus time, code frequency, and code address.
"""

from __future__ import annotations

from typing import Optional

from repro.expert.template import Fact, SlotSpec, Template
from repro.harrier.events import (
    DataTransferEvent,
    MemoryEvent,
    ProcessEvent,
    ResourceAccessEvent,
    SecurityEvent,
)
from repro.kernel.process import ResourceKind

#: Resource kinds folded into the policy's FILE type (a FIFO or a
#: directory listing is file-like for information-flow purposes).
_FILE_LIKE = {ResourceKind.FILE, ResourceKind.FIFO, ResourceKind.DIRECTORY}


def policy_resource_type(kind: ResourceKind) -> str:
    if kind in _FILE_LIKE:
        return "FILE"
    if kind is ResourceKind.SOCKET:
        return "SOCKET"
    return "CONSOLE"


SYSTEM_CALL_ACCESS = Template(
    "system_call_access",
    (
        SlotSpec("system_call_name"),
        SlotSpec("resource_name"),
        SlotSpec("resource_type"),
        SlotSpec("resource_origin"),   # TagSet of the identifier string
        SlotSpec("time"),
        SlotSpec("frequency"),
        SlotSpec("address"),
        SlotSpec("pid"),
    ),
)

DATA_TRANSFER = Template(
    "data_transfer",
    (
        SlotSpec("system_call_name"),
        SlotSpec("direction"),         # 'read' | 'write'
        SlotSpec("resource_name"),
        SlotSpec("resource_type"),     # 'FILE' | 'SOCKET' | 'CONSOLE'
        SlotSpec("data_tags"),         # TagSet of the bytes moved
        SlotSpec("resource_origin"),   # TagSet of the target identifier
        SlotSpec("source_origins"),    # ((Tag, TagSet), ...) per source
        SlotSpec("server_socket"),     # server address when target accepted
        SlotSpec("server_origin"),     # TagSet of that server address
        SlotSpec("source_server_socket"),  # server address when data came
        SlotSpec("source_server_origin"),  # in via our listener
        SlotSpec("content_type"),      # sniffed class of the bytes moved
        SlotSpec("length"),
        SlotSpec("time"),
        SlotSpec("frequency"),
        SlotSpec("address"),
        SlotSpec("pid"),
    ),
)

PROCESS_CREATED = Template(
    "process_created",
    (
        SlotSpec("total"),
        SlotSpec("recent"),
        SlotSpec("window"),
        SlotSpec("time"),
        SlotSpec("frequency"),
        SlotSpec("address"),
        SlotSpec("pid"),
    ),
)

MEMORY_USAGE = Template(
    "memory_usage",
    (
        SlotSpec("total_allocated"),
        SlotSpec("delta"),
        SlotSpec("time"),
        SlotSpec("frequency"),
        SlotSpec("address"),
        SlotSpec("pid"),
    ),
)

ALL_TEMPLATES = (
    SYSTEM_CALL_ACCESS, DATA_TRANSFER, PROCESS_CREATED, MEMORY_USAGE
)


def event_to_fact(event: SecurityEvent) -> Optional[Fact]:
    """Convert a Harrier event into the corresponding CLIPS fact."""
    if isinstance(event, ResourceAccessEvent):
        return SYSTEM_CALL_ACCESS.make(
            system_call_name=event.call_name,
            resource_name=event.resource.name,
            resource_type=policy_resource_type(event.resource.kind),
            resource_origin=event.origin,
            time=event.time,
            frequency=event.frequency,
            address=event.address,
            pid=event.pid,
        )
    if isinstance(event, DataTransferEvent):
        return DATA_TRANSFER.make(
            system_call_name=event.call_name,
            direction=event.direction,
            resource_name=event.resource.name,
            resource_type=policy_resource_type(event.resource.kind),
            data_tags=event.data_tags,
            resource_origin=event.resource_origin,
            source_origins=event.source_origins,
            server_socket=event.server_socket,
            server_origin=event.server_socket_origin,
            source_server_socket=event.source_server_socket,
            source_server_origin=event.source_server_origin,
            content_type=event.content_type,
            length=event.length,
            time=event.time,
            frequency=event.frequency,
            address=event.address,
            pid=event.pid,
        )
    if isinstance(event, ProcessEvent):
        return PROCESS_CREATED.make(
            total=event.total_created,
            recent=event.recent_created,
            window=event.window,
            time=event.time,
            frequency=event.frequency,
            address=event.address,
            pid=event.pid,
        )
    if isinstance(event, MemoryEvent):
        return MEMORY_USAGE.make(
            total_allocated=event.total_allocated,
            delta=event.delta,
            time=event.time,
            frequency=event.frequency,
            address=event.address,
            pid=event.pid,
        )
    return None
