"""Harrier configuration.

The flags mirror the paper's operational choices:

* full dataflow tracking can be disabled (section 8.4.2 runs the perl
  interpreter with dataflow off to avoid interpreter-level false
  positives and to run "much faster" — also the §9 performance ablation);
* the routine-level short circuit (gethostbyname, section 7.2) can be
  disabled to demonstrate the semantic-gap misclassification;
* basic-block frequency tracking can be disabled;
* ``complete_dataflow=False`` reproduces the *incomplete-prototype*
  artifacts the paper reports (e.g. pico's false HIGH warning) by tagging
  console input with the program binary instead of USER INPUT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet


#: Shared objects the policy trusts (paper appendix A.2 trusts libc and
#: ld-linux; our loader shim plays the ld-linux role).
DEFAULT_TRUSTED_IMAGES: FrozenSet[str] = frozenset(
    {"/lib/libc.so", "[startup]"}
)


@dataclass(frozen=True)
class HarrierConfig:
    #: Instruction-level taint propagation (the expensive part).
    track_dataflow: bool = True
    #: Count application basic-block executions (section 7.4).
    track_bb_frequency: bool = True
    #: Short-circuit name-translating library routines (section 7.2).
    short_circuit_routines: bool = True
    #: Images whose basic blocks are *not* counted as application code and
    #: whose hardcoded data the policy filters as trusted.
    trusted_images: FrozenSet[str] = DEFAULT_TRUSTED_IMAGES
    #: Routines whose input-name taint is copied onto their result.
    short_circuit_symbols: FrozenSet[str] = frozenset({"gethostbyname"})
    #: When False, emulate the paper's incomplete prototype (console input
    #: tagged as coming from the binary, as in the pico/grabem anecdotes).
    complete_dataflow: bool = True
    #: Keep every emitted event in an in-memory log (tests/benchmarks).
    keep_event_log: bool = True
    #: Upper bound on that log.  None (the default, used by the paper
    #: benchmarks) keeps the historical unbounded behaviour; with a bound,
    #: the oldest events are dropped first and ``Harrier.events_dropped``
    #: counts every drop (surfaced in the RunReport).
    max_event_log: int | None = None
    #: Window (in virtual ticks) for the process-creation *rate* rule.
    process_rate_window: int = 2000
