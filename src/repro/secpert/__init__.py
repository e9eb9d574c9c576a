"""Secpert: the security expert system implementing the HTH policy.

Three rule categories (paper section 4): execution flow, resource abuse,
information flow — expressed as productions for the :mod:`repro.expert`
engine and graded Low/Medium/High.
"""

from repro.secpert.correlation import (
    InteractionAnalyzer,
    MultiProgramMonitor,
)
from repro.secpert.exec_flow_rules import build_exec_flow_rules
from repro.secpert.facts import (
    ALL_TEMPLATES,
    DATA_TRANSFER,
    PROCESS_CREATED,
    SYSTEM_CALL_ACCESS,
    fact_of,
    policy_resource_type,
)
from repro.secpert.info_flow_rules import build_info_flow_rules
from repro.secpert.policy import DEFAULT_TRUSTED_BINARIES, PolicyConfig
from repro.secpert.resource_rules import build_resource_rules
from repro.secpert.secpert import Secpert
from repro.secpert.sessions import (
    CrossSessionAnalyzer,
    CrossSessionMonitor,
    SessionReport,
    SessionStore,
)
from repro.secpert.warnings import SecurityWarning, Severity, WarningSink

__all__ = [
    "Secpert",
    "PolicyConfig",
    "DEFAULT_TRUSTED_BINARIES",
    "Severity",
    "SecurityWarning",
    "WarningSink",
    "fact_of",
    "policy_resource_type",
    "ALL_TEMPLATES",
    "SYSTEM_CALL_ACCESS",
    "DATA_TRANSFER",
    "PROCESS_CREATED",
    "build_exec_flow_rules",
    "build_resource_rules",
    "build_info_flow_rules",
    "SessionStore",
    "CrossSessionAnalyzer",
    "CrossSessionMonitor",
    "SessionReport",
    "InteractionAnalyzer",
    "MultiProgramMonitor",
]
