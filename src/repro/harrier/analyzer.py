"""Analysis-side interface Harrier reports to (Figure 1's right half).

Secpert implements :class:`EventAnalyzer`; tests can plug in simpler
collectors.  ``analyze`` returns the warnings the event provoked, and the
monitor's decision policy (modelling the paper's interactive user) chooses
whether execution may continue.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.harrier.events import SecurityEvent


class EventAnalyzer:
    """Base analyzer: observes events, raises no warnings."""

    def analyze(self, event: SecurityEvent) -> Sequence[object]:
        """Process one event; returns warnings (opaque to Harrier)."""
        return ()


#: Decision callback: warning -> True to continue, False to kill the
#: process.  Models the paper's "the user makes his decision to continue
#: or kill the application".
DecisionPolicy = Callable[[object], bool]


def always_continue(warning: object) -> bool:
    return True
