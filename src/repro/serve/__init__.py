"""repro.serve — the always-on detection service.

Everything the paper's batch pipeline does — load a guest, run it under
Harrier, stream events into Secpert — wrapped in a daemon that accepts
submissions over a socket, executes them on a supervised pool of warm
:class:`~repro.api.Session` workers, and streams Secpert warnings back
to the submitting client *while the guest is still running*.

Layer map (one module per concern):

=================  ========================================================
``protocol``       wire format: submissions in, NDJSON event streams out
``admission``      bounded queue, per-tenant rate/tick token buckets
``streaming``      :class:`TapAnalyzer` — live warning callbacks, bit-
                   identical reports
``worker``         the per-process job loop around one warm Session
``supervisor``     dispatch, deadlines, crash containment, self-healing
                   restarts
``server``         the asyncio daemon (unix NDJSON + minimal HTTP/1.1)
``client``         blocking and async NDJSON clients
=================  ========================================================
"""

from repro.serve.admission import (
    AdmissionController,
    REASON_QUEUE_FULL,
    REASON_RATE_LIMITED,
    REASON_SHUTTING_DOWN,
    REASON_TICK_BUDGET,
    TokenBucket,
)
from repro.serve.client import (
    ServeClient,
    ServeError,
    submit_async,
)
from repro.serve.protocol import (
    ProtocolError,
    SERVE_SCHEMA_VERSION,
    Submission,
    TERMINAL_KINDS,
)
from repro.serve.server import ServeDaemon, run_daemon
from repro.serve.streaming import TapAnalyzer, warning_to_wire
from repro.serve.supervisor import Supervisor

__all__ = [
    "AdmissionController",
    "ProtocolError",
    "REASON_QUEUE_FULL",
    "REASON_RATE_LIMITED",
    "REASON_SHUTTING_DOWN",
    "REASON_TICK_BUDGET",
    "SERVE_SCHEMA_VERSION",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "Submission",
    "Supervisor",
    "TERMINAL_KINDS",
    "TapAnalyzer",
    "TokenBucket",
    "run_daemon",
    "submit_async",
    "warning_to_wire",
]
