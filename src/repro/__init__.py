"""repro — reproduction of *Hunting Trojan Horses* (Moffie & Kaeli, 2006).

HTH is a security framework that detects Trojan Horses and Backdoors by
combining **Harrier**, a run-time monitor tracking multi-source
information flow, basic-block frequency, and system/library calls, with
**Secpert**, a CLIPS-style expert system implementing the security policy.

Quickstart::

    from repro import HTH, Verdict
    from repro.isa import assemble

    hth = HTH()
    report = hth.run(assemble("/bin/prog", PROGRAM_SOURCE))
    print(report.verdict, report.render_warnings())

The paper's substrate (x86 + PIN + Linux + CLIPS) is replaced by simulated
equivalents — see DESIGN.md for the substitution map.
"""

from repro.core import (
    EngineCache,
    HTH,
    RunOptions,
    RunReport,
    Verdict,
)
from repro.harrier import Harrier, HarrierConfig
from repro.secpert import PolicyConfig, Secpert, SecurityWarning, Severity

__version__ = "1.1.0"

__all__ = [
    "HTH",
    "RunOptions",
    "EngineCache",
    "RunReport",
    "Verdict",
    "Harrier",
    "HarrierConfig",
    "Secpert",
    "PolicyConfig",
    "Severity",
    "SecurityWarning",
    "__version__",
]
