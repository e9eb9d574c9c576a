"""Metrics: counters, gauges, and histograms with labels.

The registry is the always-on half of the telemetry layer (the paper's
evaluation is built on exactly these numbers: Table 1's instruction /
syscall / basic-block counts, §8's per-feature event volumes, §9's
overhead study).  Instruments are get-or-create and the returned handles
are stable, so hot paths resolve an instrument once and call ``inc()`` /
``observe()`` on the cached handle.

When telemetry is disabled the stack is wired to :class:`NullSink`, whose
instruments are shared no-op singletons — the disabled path costs one
attribute load and a no-op call at worst, and most call sites skip even
that by caching ``None``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (sampled state)."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Streaming summary of observed values (count/sum/min/max + buckets).

    Bucket bounds default to a latency-friendly exponential ladder in
    seconds; pass explicit ``buckets`` for count-like distributions.
    """

    name: str
    labels: LabelKey = ()
    buckets: Tuple[float, ...] = (
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0
    )
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    bucket_counts: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            # one overflow bucket past the last bound
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create instrument store.

    ``counter("kernel_syscalls_total", name="SYS_open")`` returns the same
    :class:`Counter` object on every call with the same name+labels.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, str, LabelKey], object] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, str], factory):
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name=name, labels=key[2])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, /, **labels: str) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, /, **labels: str) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str, /, **labels: str) -> Histogram:
        return self._get("histogram", name, labels, Histogram)

    # -- reading -----------------------------------------------------------
    def __iter__(self) -> Iterable[object]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str, /, **labels: str) -> Optional[float]:
        """Current value of a counter/gauge, or None if never touched."""
        key = _label_key(labels)
        for (kind, mname, mlabels), metric in self._metrics.items():
            if mname == name and mlabels == key and kind in (
                "counter", "gauge"
            ):
                return metric.value  # type: ignore[union-attr]
        return None

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across all label sets."""
        acc = 0.0
        for (kind, mname, _), metric in self._metrics.items():
            if mname == name and kind in ("counter", "gauge"):
                acc += metric.value  # type: ignore[union-attr]
        return acc

    def samples(self) -> List[Dict[str, object]]:
        """Flat, JSON-ready sample list (the snapshot wire format)."""
        out: List[Dict[str, object]] = []
        for (kind, name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            sample: Dict[str, object] = {
                "name": name,
                "kind": kind,
                "labels": dict(labels),
            }
            if kind == "histogram":
                sample.update(
                    count=metric.count,
                    sum=metric.total,
                    min=metric.min,
                    max=metric.max,
                    mean=metric.mean,
                    buckets=list(metric.buckets),
                    bucket_counts=list(metric.bucket_counts),
                )
            else:
                sample["value"] = metric.value
            out.append(sample)
        return out

    def render(self) -> str:
        """Human-readable dump (``repro ... --metrics``)."""
        return render_samples(self.samples())


def render_samples(samples: Iterable[Dict[str, object]]) -> str:
    """Human-readable dump of a sample list (live registry or a merged
    fleet snapshot — both use the same wire shape)."""
    lines = []
    for sample in samples:
        labels = sample["labels"]
        label_txt = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            + "}" if labels else ""
        )
        if sample["kind"] == "histogram":
            lines.append(
                f"{sample['name']}{label_txt} "
                f"count={sample['count']} sum={sample['sum']:.6f} "
                f"mean={sample['mean']:.6f}"
            )
        else:
            value = sample["value"]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"{sample['name']}{label_txt} {shown}")
    return "\n".join(lines)


def merge_sample_lists(
    sample_lists: Iterable[List[Dict[str, object]]],
) -> List[Dict[str, object]]:
    """Merge several ``MetricsRegistry.samples()`` lists into one.

    The fleet coordinator folds per-run registry snapshots from many
    worker processes into a single fleet-level registry view:

    * **counters** sum (total work across the fleet);
    * **gauges** sum — a fleet gauge reads as "across all machines"
      (e.g. total live shadow pages), matching how per-process gauges
      already aggregate in :meth:`MetricsRegistry.total`;
    * **histograms** merge streams: counts and sums add, min/max widen,
      the mean is recomputed from the merged count/sum.

    Output order is deterministic: sorted by (kind, name, labels), the
    same order :meth:`MetricsRegistry.samples` emits.
    """
    merged: Dict[Tuple[str, str, LabelKey], Dict[str, object]] = {}
    for samples in sample_lists:
        for sample in samples:
            key = (
                str(sample["kind"]),
                str(sample["name"]),
                _label_key(dict(sample["labels"])),
            )
            into = merged.get(key)
            if into is None:
                merged[key] = dict(sample)
                continue
            if key[0] == "histogram":
                into["count"] = into["count"] + sample["count"]
                into["sum"] = into["sum"] + sample["sum"]
                for bound, pick in (("min", min), ("max", max)):
                    ours, theirs = into[bound], sample[bound]
                    if ours is None:
                        into[bound] = theirs
                    elif theirs is not None:
                        into[bound] = pick(ours, theirs)
                into["mean"] = (
                    into["sum"] / into["count"] if into["count"] else 0.0
                )
                # Bucket counts add elementwise when both sides use the
                # same bounds; on a mismatch (or a legacy sample without
                # buckets) the merged sample drops its bucket view
                # rather than mixing incompatible ladders.
                ours_b = into.get("buckets")
                theirs_b = sample.get("buckets")
                if ours_b is not None and ours_b == theirs_b:
                    into["bucket_counts"] = [
                        a + b for a, b in zip(
                            into["bucket_counts"],
                            sample["bucket_counts"],
                        )
                    ]
                elif "buckets" in into:
                    del into["buckets"]
                    del into["bucket_counts"]
            else:
                into["value"] = into["value"] + sample["value"]
    return [merged[key] for key in sorted(merged)]


# -- OpenMetrics / Prometheus text exposition ------------------------------

def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


def _labels_text(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{k}="{_escape_label_value(v)}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _family_name(name: str, kind: str) -> str:
    """The metric-family name a sample belongs to.

    OpenMetrics counters drop the ``_total`` suffix at the family level
    (``# TYPE serve_admitted counter`` exposes ``serve_admitted_total``).
    """
    if kind == "counter" and name.endswith("_total"):
        return name[: -len("_total")]
    return name


def render_openmetrics(samples: Iterable[Dict[str, object]]) -> str:
    """Render a sample list in OpenMetrics text exposition format.

    The serve daemon's ``GET /metrics`` endpoint serves this so a stock
    Prometheus scraper can consume the registry.  Histogram buckets are
    converted from the stored per-bucket counts to the cumulative
    ``le=``-labelled series the format requires; the ``+Inf`` bucket
    always equals the observation count.
    """
    by_family: Dict[str, List[Dict[str, object]]] = {}
    kinds: Dict[str, str] = {}
    for sample in samples:
        kind = str(sample["kind"])
        family = _family_name(str(sample["name"]), kind)
        by_family.setdefault(family, []).append(sample)
        kinds[family] = kind
    lines: List[str] = []
    for family in sorted(by_family):
        kind = kinds[family]
        lines.append(f"# TYPE {family} {kind}")
        for sample in by_family[family]:
            labels = dict(sample["labels"])  # type: ignore[arg-type]
            if kind == "histogram":
                bounds = sample.get("buckets")
                counts = sample.get("bucket_counts")
                cumulative = 0
                if bounds is not None and counts is not None:
                    for bound, bucket_count in zip(bounds, counts):
                        cumulative += bucket_count
                        le = _labels_text(
                            labels, extra=f'le="{_format_value(bound)}"'
                        )
                        lines.append(
                            f"{family}_bucket{le} {cumulative}"
                        )
                inf = _labels_text(labels, extra='le="+Inf"')
                lines.append(f"{family}_bucket{inf} {sample['count']}")
                plain = _labels_text(labels)
                lines.append(
                    f"{family}_sum{plain} {_format_value(sample['sum'])}"
                )
                lines.append(f"{family}_count{plain} {sample['count']}")
            else:
                suffix = "_total" if kind == "counter" else ""
                lines.append(
                    f"{family}{suffix}{_labels_text(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_OM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)$"
)


def validate_openmetrics(text: str) -> List[str]:
    """Minimal OpenMetrics validator: a list of problems (empty = valid).

    Checks the structural invariants a scraper relies on: every sample
    line parses, every sample belongs to a declared ``# TYPE`` family
    with a suffix legal for its type, counter samples end in ``_total``,
    histogram bucket series are cumulative and ``le``-labelled with a
    terminal ``+Inf`` bucket, and the exposition ends with ``# EOF``.
    """
    problems: List[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("missing terminal '# EOF' line")
    types: Dict[str, str] = {}
    bucket_state: Dict[str, float] = {}
    bucket_families: set = set()
    inf_bucket_families: set = set()
    for lineno, line in enumerate(lines, start=1):
        if not line:
            problems.append(f"line {lineno}: empty line")
            continue
        if line == "# EOF":
            if lineno != len(lines):
                problems.append(f"line {lineno}: '# EOF' before end")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary",
                "info", "unknown",
            ):
                problems.append(f"line {lineno}: malformed TYPE: {line!r}")
                continue
            family = parts[2]
            if family in types:
                problems.append(
                    f"line {lineno}: duplicate TYPE for {family}"
                )
            types[family] = parts[3]
            continue
        if line.startswith("#"):
            # HELP/UNIT comments are allowed; anything else is not.
            if not (line.startswith("# HELP ")
                    or line.startswith("# UNIT ")):
                problems.append(f"line {lineno}: stray comment: {line!r}")
            continue
        match = _OM_SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparsable sample: {line!r}")
            continue
        name = match.group("name")
        family, kind = _sample_family(name, types)
        if family is None:
            problems.append(
                f"line {lineno}: sample {name!r} has no TYPE family"
            )
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            if match.group("value") != "NaN":
                problems.append(
                    f"line {lineno}: non-numeric value: {line!r}"
                )
            continue
        if kind == "counter" and not name.endswith(("_total", "_created")):
            problems.append(
                f"line {lineno}: counter sample {name!r} lacks _total"
            )
        if name == family + "_bucket":
            bucket_families.add(family)
            labels = match.group("labels") or ""
            if 'le="' not in labels:
                problems.append(
                    f"line {lineno}: bucket without le label: {line!r}"
                )
            if 'le="+Inf"' in labels:
                inf_bucket_families.add(family)
            series = line.rsplit(" ", 1)[0]
            series = re.sub(r'le="[^"]*",?', "", series)
            previous = bucket_state.get(series)
            if previous is not None and value < previous:
                problems.append(
                    f"line {lineno}: non-cumulative bucket: {line!r}"
                )
            bucket_state[series] = value
    for family in sorted(bucket_families - inf_bucket_families):
        problems.append(f"histogram {family} lacks a le=\"+Inf\" bucket")
    return problems


def _sample_family(name: str, types: Dict[str, str]):
    """Resolve a sample name to its declared (family, kind)."""
    if name in types:
        kind = types[name]
        if kind == "histogram":
            # A bare histogram name is not a legal sample.
            return None, None
        return name, kind
    for suffix in ("_total", "_created", "_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            family = name[: -len(suffix)]
            kind = types.get(family)
            if kind is None:
                continue
            if suffix in ("_bucket", "_sum", "_count") and kind not in (
                "histogram", "summary"
            ):
                continue
            if suffix in ("_total", "_created") and kind != "counter":
                continue
            return family, kind
    return None, None


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    labels: LabelKey = ()
    value = 0.0
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullSink:
    """Zero-overhead registry stand-in used when telemetry is disabled.

    Every lookup returns one shared inert instrument; nothing is stored,
    nothing is counted, ``samples()`` is always empty.
    """

    enabled = False

    def counter(self, name: str, /, **labels: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, /, **labels: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, /, **labels: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def value(self, name: str, /, **labels: str) -> Optional[float]:
        return None

    def total(self, name: str) -> float:
        return 0.0

    def samples(self) -> List[Dict[str, object]]:
        return []

    def render(self) -> str:
        return "(telemetry disabled)"

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0
