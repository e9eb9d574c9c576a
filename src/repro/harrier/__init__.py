"""Harrier: the run-time monitoring half of HTH (paper section 7).

Public surface: the :class:`Harrier` monitor (a :class:`KernelHooks`
implementation), its configuration, the event types it emits, and the
analyzer interface the policy side implements.
"""

from repro.harrier.analyzer import (
    DecisionPolicy,
    EventAnalyzer,
    always_continue,
)
from repro.harrier.bbfreq import CodeExecutionPatterns
from repro.harrier.blockcache import BlockCache
from repro.harrier.config import DEFAULT_TRUSTED_IMAGES, HarrierConfig
from repro.harrier.content import sniff_content
from repro.harrier.dataflow import InstructionDataFlow
from repro.harrier.events import (
    DataTransferEvent,
    MemoryEvent,
    ProcessEvent,
    ResourceAccessEvent,
    ResourceId,
    SecurityEvent,
)
from repro.harrier.monitor import Harrier
from repro.harrier.routines import RoutineShortCircuit
from repro.harrier.state import ProcessShadow, ShortCircuitFrame
from repro.harrier.syscall_events import SyscallEventGenerator

__all__ = [
    "Harrier",
    "HarrierConfig",
    "DEFAULT_TRUSTED_IMAGES",
    "EventAnalyzer",
    "DecisionPolicy",
    "always_continue",
    "SecurityEvent",
    "ResourceAccessEvent",
    "DataTransferEvent",
    "MemoryEvent",
    "ProcessEvent",
    "ResourceId",
    "ProcessShadow",
    "ShortCircuitFrame",
    "InstructionDataFlow",
    "CodeExecutionPatterns",
    "BlockCache",
    "RoutineShortCircuit",
    "SyscallEventGenerator",
    "sniff_content",
]
