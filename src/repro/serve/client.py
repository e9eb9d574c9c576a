"""Clients for the serve daemon: blocking (CLI/tests) and async (bench).

The native protocol is one NDJSON submission line in, a stream of NDJSON
event lines out, over the daemon's unix socket.  :class:`ServeClient`
wraps that for synchronous callers; :func:`submit_async` is the same
exchange on asyncio streams so the load bench can hold a thousand
submissions open from one event loop.  The daemon's HTTP front needs
no client here: ``curl`` or ``http.client`` speak it.
"""

from __future__ import annotations

import socket
from typing import Callable, Dict, List, Optional

from repro.serve.protocol import (
    Submission,
    TERMINAL_KINDS,
    decode_line,
    encode_event,
)

EventCallback = Callable[[Dict[str, object]], None]


class ServeError(RuntimeError):
    """The daemon hung up without a terminal event."""


class ServeClient:
    """Blocking NDJSON client over the daemon's unix socket."""

    def __init__(self, unix_path: str, timeout: float = 120.0) -> None:
        self.unix_path = unix_path
        self.timeout = timeout

    def submit(
        self,
        submission: Submission,
        on_event: Optional[EventCallback] = None,
    ) -> Dict[str, object]:
        """Send one submission; return its terminal event.

        ``on_event`` sees every event (``accepted``, streamed
        ``warning``/``retry``, the terminal) as it arrives.
        """
        events = self.submit_collect(submission, on_event)
        return events[-1]

    def submit_collect(
        self,
        submission: Submission,
        on_event: Optional[EventCallback] = None,
    ) -> List[Dict[str, object]]:
        """Like :meth:`submit` but return the whole event list."""
        events: List[Dict[str, object]] = []
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
            sock.sendall(encode_event(submission.to_wire()))
            with sock.makefile("rb") as stream:
                for line in stream:
                    event = decode_line(line)
                    events.append(event)
                    if on_event is not None:
                        on_event(event)
                    if event.get("kind") in TERMINAL_KINDS:
                        return events
        raise ServeError(
            "daemon closed the stream without a terminal event "
            f"(got {[e.get('kind') for e in events]})"
        )


async def submit_async(
    unix_path: str,
    submission: Submission,
    on_event: Optional[EventCallback] = None,
) -> List[Dict[str, object]]:
    """One submission over asyncio streams; returns the full event list."""
    import asyncio

    reader, writer = await asyncio.open_unix_connection(unix_path)
    events: List[Dict[str, object]] = []
    try:
        writer.write(encode_event(submission.to_wire()))
        await writer.drain()
        while True:
            line = await reader.readline()
            if not line:
                raise ServeError(
                    "daemon closed the stream without a terminal event "
                    f"(got {[e.get('kind') for e in events]})"
                )
            event = decode_line(line)
            events.append(event)
            if on_event is not None:
                on_event(event)
            if event.get("kind") in TERMINAL_KINDS:
                return events
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass
