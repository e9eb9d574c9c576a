"""The serve wire protocol: submissions in, event streams out.

One submission travels as a single JSON object; the daemon answers with
a stream of JSON event objects (newline-delimited over a socket, chunked
over HTTP) and closes after a terminal event.  Everything on the wire is
plain JSON — the protocol is what lets a submission cross from any
client into a worker *process* unchanged, so the wire codec here is also
the job codec the supervisor hands to workers.

Submission forms (exactly one):

* **inline source** — guest assembly text plus its environment (argv,
  stdin script, seeded files, network peers), the shape ``repro run``
  takes from the shell;
* **registry workload** — ``{"table": "4", "name": "Remote"}`` naming a
  row of the paper's evaluation registries; the worker resolves it like
  a fleet worker does, setup callbacks included.

Event kinds, in stream order::

    accepted  {job, queue_depth}            admission succeeded
    rejected  {reason}                      terminal: backpressure/limits
    warning   {seq, warning:{rule,...}}     streamed as Secpert fires
    report    {report:{...}, timing:{...}}  terminal: the full RunReport
    error     {code, error, timing}         terminal: contained failure

The ``report`` dict inside the terminal event is byte-for-byte
``RunReport.to_dict()`` — identical to what a batch ``Session.run`` of
the same submission produces (the serve differential tests hold that
line).

Schema discipline mirrors the fleet wire format: every stream opens with
an event carrying ``schema_version`` (:data:`SERVE_SCHEMA_VERSION`);
bump it on any breaking layout change.

v2 (verdict cache): submissions may carry ``options.cache``;
``accepted``/``report`` events carry ``cached: bool``.

v3: the v2 static-profile submission flag and its non-terminal event
are gone (a v2 client asking for the profile would otherwise get
neither the event nor an error).  A submission labelled with any other
version is rejected, and so is one whose fields have the wrong JSON
shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.core.options import DEFAULT_MAX_TICKS, RunOptions

#: Version of the serve wire format (submissions and events), the only
#: one this daemon accepts.
SERVE_SCHEMA_VERSION = 3

#: Terminal event kinds — after one of these the stream is complete.
TERMINAL_KINDS = frozenset({"rejected", "report", "error"})

#: Scalar FaultProfile fields that may travel on the wire (the same set
#: ``repro chaos`` exposes as CLI overrides).  Collection-valued fields
#: (eligible syscall sets, errno palettes) keep their profile defaults.
_FAULT_SCALARS = (
    "stall_rate", "errno_rate", "connect_reset_rate",
    "resolve_fail_rate", "quantum_jitter", "max_faults",
)


class ProtocolError(ValueError):
    """A submission or event that does not follow the wire contract."""


# ---------------------------------------------------------------------------
# RunOptions <-> wire


def options_to_wire(options: RunOptions) -> Dict[str, object]:
    """The JSON-safe subset of :class:`RunOptions` a submission carries.

    Policy and HarrierConfig overrides are server-side concerns and do
    not travel; fault profiles travel as their scalar rates plus the
    schedule seed (collection fields keep defaults).
    """
    wire: Dict[str, object] = {
        "provenance": options.provenance,
        "metrics": options.metrics,
        "max_ticks": options.max_ticks,
        "wall_timeout": options.wall_timeout,
        "cache": options.cache,
    }
    if options.fault_profile is not None:
        wire["fault"] = {
            "seed": options.fault_seed,
            **{
                name: getattr(options.fault_profile, name)
                for name in _FAULT_SCALARS
            },
        }
    return wire


def _shaped(data: Mapping[str, object], key: str, kind: type) -> object:
    """``data.get(key)``, which must be null or a ``kind`` (a JSON
    object decodes to a Mapping, an array to a list); any other shape
    is a ProtocolError."""
    value = data.get(key)
    if value is not None and not isinstance(value, kind):
        raise ProtocolError(
            f"field {key!r} must be a JSON "
            f"{'object' if kind is Mapping else 'array'}, "
            f"got {type(value).__name__}"
        )
    return value


def options_from_wire(data: Optional[Mapping[str, object]]) -> RunOptions:
    """Rebuild a :class:`RunOptions` from its wire dict (missing keys
    keep their defaults, unknown keys are rejected)."""
    if data is None:
        return RunOptions()
    data = dict(data)
    fault = _shaped(data, "fault", Mapping)
    data.pop("fault", None)
    allowed = {
        "provenance", "metrics", "max_ticks", "wall_timeout", "cache",
    }
    unknown = set(data) - allowed
    if unknown:
        raise ProtocolError(f"unknown options field(s): {sorted(unknown)}")
    try:
        max_ticks = int(data.get("max_ticks", DEFAULT_MAX_TICKS))
        wall_timeout = data.get("wall_timeout")
        if wall_timeout is not None:
            wall_timeout = float(wall_timeout)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad options value: {exc}") from None
    if max_ticks < 1:
        # A negative budget would *refund* the tenant's tick bucket.
        raise ProtocolError(
            f"options field 'max_ticks' must be >= 1, got {max_ticks}"
        )
    if wall_timeout is not None and not 0 < wall_timeout < math.inf:
        raise ProtocolError(
            f"options field 'wall_timeout' must be finite and > 0, "
            f"got {wall_timeout}"
        )
    options = RunOptions(
        provenance=bool(data.get("provenance", True)),
        metrics=bool(data.get("metrics", False)),
        cache=bool(data.get("cache", True)),
        max_ticks=max_ticks,
        wall_timeout=wall_timeout,
    )
    if fault is not None:
        from repro.faultinject.plan import FaultProfile

        fault = dict(fault)
        try:
            seed = int(fault.pop("seed", 0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"bad fault seed: {exc}") from None
        unknown = set(fault) - set(_FAULT_SCALARS)
        if unknown:
            raise ProtocolError(
                f"unknown fault field(s): {sorted(unknown)}"
            )
        try:
            profile = FaultProfile(**fault)
        except ValueError as exc:
            raise ProtocolError(f"bad fault profile: {exc}") from None
        options = replace(
            options, fault_profile=profile, fault_seed=seed
        )
    return options


# ---------------------------------------------------------------------------
# submissions


@dataclass(frozen=True)
class Submission:
    """One unit of serve work: what to run, as what, for whom."""

    #: Inline guest assembly source (one of ``source``/``workload``).
    source: Optional[str] = None
    #: Registry row reference: ``(table_key, workload_name)``.
    workload: Optional[Tuple[str, str]] = None
    #: Guest path identity for inline source.
    path: str = "/bin/guest"
    argv: Optional[Tuple[str, ...]] = None
    stdin: Optional[str] = None
    #: Files seeded into the simulated fs before the run.
    files: Mapping[str, str] = field(default_factory=dict)
    #: Network peers: ``"host:port" -> opening payload`` ("" registers a
    #: plain data sink, anything else a conversation peer that pushes
    #: the payload on connect — the ``--peer``/``--serve`` CLI split).
    peers: Mapping[str, str] = field(default_factory=dict)
    options: RunOptions = field(default_factory=RunOptions)
    #: Admission identity: budgets and rate limits are per tenant.
    tenant: str = "default"
    #: Free-form label echoed back in events (debugging, load tests).
    name: str = ""

    def __post_init__(self) -> None:
        if (self.source is None) == (self.workload is None):
            raise ProtocolError(
                "a submission needs exactly one of source= or workload="
            )

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {
            "schema_version": SERVE_SCHEMA_VERSION,
            "tenant": self.tenant,
            "name": self.name,
            "options": options_to_wire(self.options),
        }
        if self.workload is not None:
            wire["workload"] = {
                "table": self.workload[0], "name": self.workload[1],
            }
        else:
            wire["source"] = self.source
            wire["path"] = self.path
            if self.argv is not None:
                wire["argv"] = list(self.argv)
            if self.stdin is not None:
                wire["stdin"] = self.stdin
            if self.files:
                wire["files"] = dict(self.files)
            if self.peers:
                wire["peers"] = dict(self.peers)
        return wire

    @classmethod
    def from_wire(cls, data: Mapping[str, object]) -> "Submission":
        if not isinstance(data, Mapping):
            raise ProtocolError("submission must be a JSON object")
        version = data.get("schema_version", SERVE_SCHEMA_VERSION)
        if version != SERVE_SCHEMA_VERSION:
            raise ProtocolError(
                f"unsupported schema_version {version!r} "
                f"(this daemon speaks {SERVE_SCHEMA_VERSION})"
            )
        workload = _shaped(data, "workload", Mapping)
        if workload is not None:
            try:
                workload = (str(workload["table"]), str(workload["name"]))
            except KeyError as exc:
                raise ProtocolError(
                    f"field 'workload' lacks key {exc}"
                ) from None
        source = data.get("source")
        if source is not None:
            source = str(source)
        argv = _shaped(data, "argv", list)
        files = _shaped(data, "files", Mapping) or {}
        peers = _shaped(data, "peers", Mapping) or {}
        return cls(
            source=source,
            workload=workload,
            path=str(data.get("path", "/bin/guest")),
            argv=tuple(str(a) for a in argv) if argv is not None else None,
            stdin=(
                str(data["stdin"]) if data.get("stdin") is not None else None
            ),
            files={str(k): str(v) for k, v in files.items()},
            peers={str(k): str(v) for k, v in peers.items()},
            options=options_from_wire(_shaped(data, "options", Mapping)),
            tenant=str(data.get("tenant", "default")),
            name=str(data.get("name", "")),
        )


# ---------------------------------------------------------------------------
# events


def encode_event(event: Mapping[str, object]) -> bytes:
    """One event as an NDJSON line."""
    return (json.dumps(event, default=str) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, object]:
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable wire line: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("wire line must decode to a JSON object")
    return data


def accepted_event(
    job: str, queue_depth: int, cached: bool = False
) -> Dict[str, object]:
    return {
        "kind": "accepted",
        "schema_version": SERVE_SCHEMA_VERSION,
        "job": job,
        "queue_depth": queue_depth,
        "cached": cached,
    }


def rejected_event(reason: str, detail: str = "") -> Dict[str, object]:
    return {
        "kind": "rejected",
        "schema_version": SERVE_SCHEMA_VERSION,
        "reason": reason,
        "detail": detail,
    }
