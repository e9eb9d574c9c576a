"""Stdlib HTTP client for the serve daemon's HTTP front.

The daemon answers ``GET /healthz``, ``/stats`` and ``/metrics`` and a
chunked NDJSON ``POST /submit``; these helpers drive them from tests
and CI (``http.client`` handles the chunked decoding of the streamed
response).
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, List, Optional

from repro.serve.client import EventCallback, ServeError
from repro.serve.protocol import (
    Submission,
    TERMINAL_KINDS,
    decode_line,
    encode_event,
)


def http_get(host: str, port: int, path: str, timeout: float = 10.0) -> Dict:
    """GET a JSON endpoint (``/healthz``, ``/stats``)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return {
            "status": resp.status,
            "body": json.loads(resp.read().decode("utf-8")),
        }
    finally:
        conn.close()


def http_get_text(
    host: str, port: int, path: str, timeout: float = 10.0
) -> Dict:
    """GET a text endpoint (``/metrics``) without JSON-decoding it."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return {
            "status": resp.status,
            "content_type": resp.getheader("Content-Type", ""),
            "text": resp.read().decode("utf-8"),
        }
    finally:
        conn.close()


def http_submit(
    host: str,
    port: int,
    submission: Submission,
    on_event: Optional[EventCallback] = None,
    timeout: float = 120.0,
) -> List[Dict[str, object]]:
    """POST /submit and stream the chunked NDJSON response.

    Returns the full event list; a rejection (HTTP 429/503/400) comes
    back as a one-element list holding the ``rejected`` event, with the
    status attached under ``http_status``.
    """
    body = encode_event(submission.to_wire())
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    events: List[Dict[str, object]] = []
    try:
        conn.request(
            "POST", "/submit", body=body,
            headers={"Content-Type": "application/x-ndjson"},
        )
        resp = conn.getresponse()
        if resp.status != 200:
            event = decode_line(resp.read())
            event["http_status"] = resp.status
            events.append(event)
            if on_event is not None:
                on_event(event)
            return events
        while True:
            line = resp.readline()
            if not line:
                break
            event = decode_line(line)
            events.append(event)
            if on_event is not None:
                on_event(event)
            if event.get("kind") in TERMINAL_KINDS:
                break
        if not events or events[-1].get("kind") not in TERMINAL_KINDS:
            raise ServeError(
                "HTTP stream ended without a terminal event "
                f"(got {[e.get('kind') for e in events]})"
            )
        return events
    finally:
        conn.close()
