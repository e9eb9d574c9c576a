"""A minimal OpenMetrics validator for ``render_openmetrics`` output
and the serve daemon's ``/metrics`` scrape (tests and CI)."""

from __future__ import annotations

import re
from typing import Dict, List


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
