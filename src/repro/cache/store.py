"""The verdict cache store: in-memory LRU tier + optional disk tier.

The memory tier holds the values themselves, so a memory hit decodes
nothing and hands every caller the same object: values must be
immutable — a frozen :class:`RunReport` (tuple sequence fields) in the
Session/fleet ``"session"`` namespace, a wire dict the daemon only ever
reads in the ``"serve"`` one.

The disk tier is data-only JSON (:func:`dumps`, :func:`loads`).  It is
lossless: plain JSON stays plain, and every other value is an object
whose ``$``-tag names its type from a fixed whitelist — the report, its
result, warnings, events, resource ids, tags and tag sets, three enums,
tuples and non-string-keyed dicts.  Reading builds only those, so bytes
planted in a shared ``cache_dir`` can poison the cache but never
execute code.  An entry that does not decode (a pickle from an older
store, a truncated write, a foreign tag) reads as a miss and is
overwritten by the next store.

The disk tier is safe for concurrent fleet workers without locking:
entries are content-addressed (identical keys always carry identical
payloads, so a racing double-write is harmless), writes go through a
unique temp file + :func:`os.replace` (atomic on POSIX), and a corrupt
or truncated entry reads as a miss, never as an error.

Cache *policy* lives here too: :func:`bypass_reason` names every
situation in which a run must not be answered (or populated) from
cache — the cache is disabled, fault injection is active (chaos runs
must really execute), telemetry is being collected (a cached reply has
no fresh samples to contribute), or the run carries an opaque analyzer
or setup closure the key cannot describe.  Stores are refused for
degraded or watchdog-killed reports so a retry always re-executes.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, NamedTuple, Optional, Tuple

from repro.core.report import RunReport
from repro.harrier.events import (
    DataTransferEvent,
    MemoryEvent,
    ProcessEvent,
    ResourceAccessEvent,
    ResourceId,
)
from repro.kernel.kernel import RunResult
from repro.kernel.process import ResourceKind
from repro.secpert.warnings import SecurityWarning, Severity
from repro.taint.tags import DataSource, Tag, TagSet

# -- bypass reasons (values appear as the cache_bypass_total{reason=} label)
BYPASS_DISABLED = "disabled"
BYPASS_FAULTS = "faults"
BYPASS_TELEMETRY = "telemetry"
BYPASS_ANALYZER = "analyzer"
BYPASS_OPAQUE_SETUP = "opaque-setup"

_BYPASS_REASONS = (
    BYPASS_DISABLED,
    BYPASS_FAULTS,
    BYPASS_TELEMETRY,
    BYPASS_ANALYZER,
    BYPASS_OPAQUE_SETUP,
)

# -- the disk format ----------------------------------------------------------
_SCALARS = (str, int, float, bool, type(None))
#: The only types a disk entry may build, by ``$``-tag: tuples, dicts
#: that a JSON object cannot hold, tag sets and three enums (built from
#: their JSON body) and the report's dataclasses (from their fields).
_MAKERS = {f"${cls.__name__}": cls for cls in (
    tuple, dict, TagSet, Severity, DataSource, ResourceKind,
)}
_RECORDS = {f"${cls.__name__}": cls for cls in (
    RunReport, RunResult, SecurityWarning, ResourceId, Tag,
    ResourceAccessEvent, DataTransferEvent, ProcessEvent, MemoryEvent,
)}


def _encode(value: Any) -> Any:
    """``value`` as JSON data.  Scalars, lists and dicts with string keys
    (none starting with ``$``) stay as they are; anything else becomes a
    one-key object whose ``$``-tag names its type.  Raises TypeError for
    a type outside the whitelist."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list:
        return [_encode(v) for v in value]
    if kind is dict and all(type(k) is str and k[:1] != "$" for k in value):
        return {k: _encode(v) for k, v in value.items()}
    tag = f"${kind.__name__}"
    if kind is dict:
        return {tag: [[_encode(k), _encode(v)] for k, v in value.items()]}
    if kind is tuple or kind is TagSet:
        return {tag: [_encode(v) for v in value]}
    if _MAKERS.get(tag) is kind:
        return {tag: value.value}
    if _RECORDS.get(tag) is kind:
        return {tag: {f.name: _encode(getattr(value, f.name))
                      for f in fields(kind)}}
    raise TypeError(f"not cacheable data: {kind.__qualname__}")


def _build(obj: Dict[str, Any]) -> Any:
    """The ``json.loads`` object hook inverting :func:`_encode`: a
    ``$``-tagged object becomes its whitelisted type, an unknown tag or
    malformed body raises, and any other object stays a dict."""
    tag = next(iter(obj), "")
    if tag[:1] != "$":
        return obj
    (tag, body), = obj.items()
    if tag in _RECORDS:
        return _RECORDS[tag](**body)
    return _MAKERS[tag](body)


def dumps(value: Any) -> bytes:
    """``value`` as data-only JSON; TypeError outside the whitelist."""
    return json.dumps(_encode(value), separators=(",", ":")).encode("utf-8")


def loads(payload: bytes) -> Any:
    """Invert :func:`dumps`, building nothing but whitelisted types."""
    return json.loads(payload, object_hook=_build)


def bypass_reason(
    options,
    telemetry=None,
    analyzer=None,
    opaque_setup: bool = False,
) -> Optional[str]:
    """Why this run must skip the cache, or None if it is cacheable.

    Ordering matters for the counters: an explicit ``--no-cache`` wins
    over everything, then chaos/fault injection, then telemetry.
    """
    if not getattr(options, "cache", True):
        return BYPASS_DISABLED
    if options.fault_profile is not None:
        return BYPASS_FAULTS
    if telemetry is not None or options.wants_telemetry:
        return BYPASS_TELEMETRY
    if analyzer is not None:
        return BYPASS_ANALYZER
    if opaque_setup:
        return BYPASS_OPAQUE_SETUP
    return None


def cacheable_report(report) -> bool:
    """Whether a fresh :class:`RunReport` may populate the cache.

    Watchdog kills and degraded runs (monitor faults, quarantined rules,
    dropped events) are transient outcomes — the fleet retries them, so
    remembering them would freeze a flake forever.
    """
    return report.result.reason != "watchdog" and not report.degraded


def cacheable_report_dict(report: Dict[str, Any]) -> bool:
    """`cacheable_report` for wire-form (``to_dict``) reports."""
    result = report.get("result") or {}
    return result.get("reason") != "watchdog" and not report.get("degraded")


class MemoryLRU:
    """A bounded LRU map of (immutable) values; the hot tier of the
    verdict cache."""

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.evictions = 0

    def get(self, key: str) -> Optional[Any]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class Entry(NamedTuple):
    """One readable disk entry."""

    meta: Dict[str, Any]
    value: Any
    size: int


class DiskStore:
    """Content-addressed entries on disk, shareable between processes.

    Layout: ``<root>/<key[:2]>/<key>.rvc`` — the two-hex-char shard keeps
    directories small on big sweeps.  Each entry is the :func:`dumps`
    envelope ``{"key", "meta", "value"}``; the embedded key is checked
    on read so a renamed or mangled file can never answer for the wrong
    digest.

    A root this store creates is made mode ``0o700``; a pre-existing
    root's permissions are the operator's business and left alone.
    """

    SUFFIX = ".rvc"

    def __init__(self, root: str) -> None:
        self.root = root
        self.corrupt = 0
        self._seq = 0
        existed = os.path.isdir(root)
        os.makedirs(root, exist_ok=True)
        if not existed:
            try:
                os.chmod(root, 0o700)
            except OSError:
                pass

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + self.SUFFIX)

    def read(self, key: str) -> Optional[Entry]:
        """The entry under ``key``, or None when it is missing or does
        not decode (counted in ``corrupt``)."""
        try:
            with open(self._path(key), "rb") as fh:
                payload = fh.read()
        except OSError:
            return None
        try:
            envelope = loads(payload)
            if envelope["key"] != key or type(envelope["meta"]) is not dict:
                raise ValueError("not an entry for this key")
            return Entry(envelope["meta"], envelope["value"], len(payload))
        except Exception:
            self.corrupt += 1
            return None

    def write(self, key: str, value: Any, meta: Dict[str, Any]) -> bool:
        """Store ``value`` under ``key``; False (nothing written) when it
        is not :func:`dumps` data."""
        try:
            payload = dumps({"key": key, "meta": meta, "value": value})
        except TypeError:
            return False
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._seq += 1
        tmp = f"{path}.tmp.{os.getpid()}.{self._seq}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk degrades to a smaller cache, not
            # a failed run.
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return True

    def _keys(self) -> Iterator[str]:
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if os.path.isdir(shard_dir):
                for name in sorted(os.listdir(shard_dir)):
                    if name.endswith(self.SUFFIX):
                        yield name[: -len(self.SUFFIX)]

    def entries(self) -> Iterator[Tuple[str, Dict[str, Any], int]]:
        """Yield ``(key, meta, size_bytes)`` for every readable entry."""
        for key in self._keys():
            entry = self.read(key)
            if entry is not None:
                yield key, entry.meta, entry.size

    def clear(self) -> int:
        removed = 0
        for key in list(self._keys()):
            try:
                os.unlink(self._path(key))
                removed += 1
            except OSError:
                pass
        return removed


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    mem_hits: int = 0
    disk_hits: int = 0
    store_skips: int = 0
    unencodable: int = 0
    bypass: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: What a disk hit must be, per namespace.  A shared cache dir can hold
#: any decodable value under a key; a wrong-shaped one is corrupt, not
#: an answer (its caller would fail on it, and a promoted one would keep
#: failing for the life of the memory tier).
_HIT_SHAPES = {
    "session": lambda value: type(value) is RunReport,
    "serve": lambda value: (
        type(value) is dict and type(value.get("report")) is dict
    ),
}
_ANY_SHAPE = lambda value: True  # noqa: E731 - other namespaces


class VerdictCache:
    """Two-tier content-addressed verdict cache.

    ``namespace`` keeps differently-shaped values from colliding in a
    shared store: the Session caches frozen :class:`RunReport` objects
    (``"session"``) while the serve daemon caches wire dicts
    (``"serve"``) — both may point at the same ``disk_dir``.  A hit is
    the stored value itself (module docstring), never a copy.

    With a ``metrics`` registry attached, every operation lands in the
    ``cache_*`` OpenMetrics families (pre-touched to zero at
    construction so scrapes see them before the first lookup).
    """

    def __init__(
        self,
        capacity: int = 512,
        disk_dir: Optional[str] = None,
        metrics=None,
        namespace: str = "session",
    ) -> None:
        self.namespace = namespace
        self.memory = MemoryLRU(capacity)
        self.disk = DiskStore(disk_dir) if disk_dir else None
        self.stats = CacheStats()
        self.metrics = metrics
        if metrics is not None:
            metrics.counter("cache_hits_total", tier="memory")
            metrics.counter("cache_hits_total", tier="disk")
            metrics.counter("cache_misses_total")
            metrics.counter("cache_stores_total")
            for reason in _BYPASS_REASONS:
                metrics.counter("cache_bypass_total", reason=reason)
            metrics.counter("cache_evictions_total")
            metrics.counter("cache_corrupt_total")
            metrics.gauge("cache_entries")
            metrics.histogram("cache_lookup_seconds")

    def _full_key(self, key: str) -> str:
        return f"{self.namespace}-{key}"

    # -- the cache protocol -------------------------------------------------
    def lookup(self, key: str) -> Optional[Any]:
        """Return the cached value (the stored object), or None on miss."""
        started = time.perf_counter()
        full = self._full_key(key)
        tier = None
        value = self.memory.get(full)
        if value is not None:
            tier = "memory"
        elif self.disk is not None:
            entry = self.disk.read(full)
            fits = _HIT_SHAPES.get(self.namespace, _ANY_SHAPE)
            if entry is not None and not fits(entry.value):
                self.disk.corrupt += 1
            elif entry is not None:
                tier = "disk"
                value = entry.value
                self.memory.put(full, value)
        if self.metrics is not None:
            self.metrics.histogram("cache_lookup_seconds").observe(
                time.perf_counter() - started
            )
        if tier is None:
            self.stats.misses += 1
            if self.metrics is not None:
                self.metrics.counter("cache_misses_total").inc()
            return None
        self.stats.hits += 1
        if tier == "memory":
            self.stats.mem_hits += 1
        else:
            self.stats.disk_hits += 1
        if self.metrics is not None:
            self.metrics.counter("cache_hits_total", tier=tier).inc()
        return value

    def store(
        self, key: str, value: Any, meta: Optional[Dict[str, Any]] = None
    ) -> bool:
        """Remember an immutable ``value``.  With a disk tier, a value the
        disk format cannot hold (:func:`dumps`) is not stored in
        any tier."""
        full = self._full_key(key)
        if self.disk is not None and not self.disk.write(
            full, value, {"namespace": self.namespace, **(meta or {})}
        ):
            self.stats.unencodable += 1
            return False
        self.memory.put(full, value)
        self.stats.stores += 1
        if self.metrics is not None:
            self.metrics.counter("cache_stores_total").inc()
            self.metrics.gauge("cache_entries").set(len(self.memory))
        return True

    def store_report(self, key: str, report, meta=None) -> bool:
        """Store a fresh RunReport if its outcome is cacheable."""
        if not cacheable_report(report):
            self.stats.store_skips += 1
            return False
        info = {
            "program": report.program,
            "verdict": report.verdict.value,
            "warnings": len(report.warnings),
        }
        info.update(meta or {})
        return self.store(key, report, meta=info)

    def bypass(self, reason: str) -> None:
        self.stats.bypass[reason] = self.stats.bypass.get(reason, 0) + 1
        if self.metrics is not None:
            self.metrics.counter("cache_bypass_total", reason=reason).inc()

    # -- introspection ------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    def snapshot(self) -> Dict[str, Any]:
        snap = {
            "namespace": self.namespace,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "hit_rate": round(self.stats.hit_rate, 4),
            "stores": self.stats.stores,
            "store_skips": self.stats.store_skips,
            "unencodable": self.stats.unencodable,
            "memory_hits": self.stats.mem_hits,
            "disk_hits": self.stats.disk_hits,
            "memory_entries": len(self.memory),
            "evictions": self.memory.evictions,
            "bypass": dict(sorted(self.stats.bypass.items())),
            "disk_dir": self.disk.root if self.disk is not None else None,
            "disk_corrupt": self.disk.corrupt if self.disk else 0,
        }
        if self.metrics is not None:
            self.metrics.counter(
                "cache_evictions_total"
            ).value = self.memory.evictions
            self.metrics.counter(
                "cache_corrupt_total"
            ).value = self.disk.corrupt if self.disk else 0
        return snap

    def clear(self) -> None:
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()


def merge_cache_stats(parts) -> Dict[str, Any]:
    """Deterministically merge per-worker cache snapshots (fleet merge).

    Counters add; the hit rate is recomputed from the merged totals, so
    the result is independent of worker arrival order.
    """
    merged: Dict[str, Any] = {
        "hits": 0,
        "misses": 0,
        "stores": 0,
        "store_skips": 0,
        "memory_hits": 0,
        "disk_hits": 0,
        "evictions": 0,
        "bypass": {},
        "workers": 0,
    }
    for part in parts:
        if not part:
            continue
        merged["workers"] += 1
        for field_name in (
            "hits", "misses", "stores", "store_skips",
            "memory_hits", "disk_hits", "evictions",
        ):
            merged[field_name] += int(part.get(field_name, 0))
        for reason, count in (part.get("bypass") or {}).items():
            merged["bypass"][reason] = (
                merged["bypass"].get(reason, 0) + int(count)
            )
    total = merged["hits"] + merged["misses"]
    merged["hit_rate"] = round(
        merged["hits"] / total, 4
    ) if total else 0.0
    merged["bypass"] = dict(sorted(merged["bypass"].items()))
    return merged
