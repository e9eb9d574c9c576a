"""HTH core: the public facade over the whole framework."""

from repro.core.engine import EngineCache
from repro.core.hth import HTH, STANDARD_BINARIES, stub_binary
from repro.core.options import RunOptions
from repro.core.report import REPORT_SCHEMA_VERSION, RunReport, Verdict

__all__ = [
    "HTH",
    "stub_binary",
    "STANDARD_BINARIES",
    "RunOptions",
    "EngineCache",
    "RunReport",
    "REPORT_SCHEMA_VERSION",
    "Verdict",
]
