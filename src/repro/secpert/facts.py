"""CLIPS fact templates for Secpert: each reads a Harrier event in place.

The templates mirror the assertions shown in paper appendix A.1: a
``system_call_access`` fact for resource accesses and a ``data_transfer``
fact for reads/writes, each carrying the resource identifier's provenance
(as a :class:`TagSet` — the CLIPS prototype used parallel multifield
slots), plus time, code frequency, and code address.

A Harrier event *is* its fact's record: each slot names the reader that
takes its value from the event (``resource_name`` is the event's
``resource.name``), so an event is built once and never copied.  This
module is the only one that knows how the CLIPS slots map onto the
event fields.
"""

from __future__ import annotations

from operator import attrgetter
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


def _resource_type(event: SecurityEvent) -> str:
    return policy_resource_type(event.resource.kind)  # type: ignore


def _slot(name: str, field: Optional[str] = None) -> SlotSpec:
    """Slot ``name`` read from the event's ``field`` (default: ``name``;
    dotted for a nested attribute)."""
    return SlotSpec(name, read=attrgetter(field or name))


#: Slots every template reads from the fields all events share
#: (paper section 6.1.2).
_COMMON = (_slot("time"), _slot("frequency"), _slot("address"), _slot("pid"))

SYSTEM_CALL_ACCESS = Template(
    "system_call_access",
    (
        _slot("system_call_name", "call_name"),
        _slot("resource_name", "resource.name"),
        SlotSpec("resource_type", read=_resource_type),
        _slot("resource_origin", "origin"),  # TagSet of the identifier
    ) + _COMMON,
)

DATA_TRANSFER = Template(
    "data_transfer",
    (
        _slot("system_call_name", "call_name"),
        _slot("direction"),                  # 'read' | 'write'
        _slot("resource_name", "resource.name"),
        SlotSpec("resource_type", read=_resource_type),  # FILE|SOCKET|CONSOLE
        _slot("data_tags"),                  # TagSet of the bytes moved
        _slot("resource_origin"),            # TagSet of the target identifier
        _slot("source_origins"),             # ((Tag, TagSet), ...) per source
        _slot("server_socket"),              # server address when target
        _slot("server_origin", "server_socket_origin"),  # accepted + origin
        _slot("source_server_socket"),       # server address when data came
        _slot("source_server_origin"),       # in via our listener + origin
        _slot("content_type"),               # sniffed class of the bytes
        _slot("length"),
    ) + _COMMON,
)

PROCESS_CREATED = Template(
    "process_created",
    (
        _slot("total", "total_created"),
        _slot("recent", "recent_created"),
        _slot("window"),
    ) + _COMMON,
)

MEMORY_USAGE = Template(
    "memory_usage",
    (_slot("total_allocated"), _slot("delta")) + _COMMON,
)

ALL_TEMPLATES = (
    SYSTEM_CALL_ACCESS, DATA_TRANSFER, PROCESS_CREATED, MEMORY_USAGE
)

_TEMPLATE_OF = {
    ResourceAccessEvent: SYSTEM_CALL_ACCESS,
    DataTransferEvent: DATA_TRANSFER,
    ProcessEvent: PROCESS_CREATED,
    MemoryEvent: MEMORY_USAGE,
}


def fact_of(event: SecurityEvent) -> Optional[Fact]:
    """The CLIPS fact whose record is ``event`` (None for an event no
    template reads)."""
    template = _TEMPLATE_OF.get(type(event))
    if template is None:
        return None
    return Fact(template, event)
