"""Event-to-fact copy: the reference reading of Secpert's templates.

Secpert's templates (``repro.secpert.facts``) read each slot from the
Harrier event in place, so the event is the fact's record.
:func:`event_to_fact` is the copy it replaced: it takes the event's
fields slot by slot into a dict record of a generic twin of the
template (same name, same slots in the same order), which
``Template.make`` builds.  A fact from each must read the same value in
every slot and render to the same CLIPS text.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.expert.template import Fact, SlotSpec, Template
from repro.harrier.events import (
    DataTransferEvent,
    MemoryEvent,
    ProcessEvent,
    ResourceAccessEvent,
    SecurityEvent,
)
from repro.secpert.facts import ALL_TEMPLATES, policy_resource_type

#: Template name -> a template of the same slots whose record is a dict.
COPIES: Dict[str, Template] = {
    t.name: Template(t.name, tuple(SlotSpec(slot) for slot in t.slots))
    for t in ALL_TEMPLATES
}


def event_to_fact(event: SecurityEvent) -> Optional[Fact]:
    """Copy a Harrier event into the corresponding CLIPS fact."""
    if isinstance(event, ResourceAccessEvent):
        return COPIES["system_call_access"].make(
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
        return COPIES["data_transfer"].make(
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
        return COPIES["process_created"].make(
            total=event.total_created,
            recent=event.recent_created,
            window=event.window,
            time=event.time,
            frequency=event.frequency,
            address=event.address,
            pid=event.pid,
        )
    if isinstance(event, MemoryEvent):
        return COPIES["memory_usage"].make(
            total_allocated=event.total_allocated,
            delta=event.delta,
            time=event.time,
            frequency=event.frequency,
            address=event.address,
            pid=event.pid,
        )
    return None
