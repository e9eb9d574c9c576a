"""Merging per-run results into fleet-level observability artifacts.

Workers stream ``RunReport`` dicts (each optionally carrying a
:class:`TelemetrySnapshot` dict) plus raw span dicts.  This module folds
them back together:

* :func:`merged_telemetry` — one fleet-level snapshot: metric registries
  merge per :func:`repro.telemetry.merge_sample_lists` (counters/gauges
  sum, histograms merge streams) and span counts add.
* :func:`fleet_chrome_trace` — one Perfetto-loadable trace where every
  run is a Chrome "process" (pid = task index, named after the
  workload), preserving each run's internal span tree.

``repro table``, ``repro chaos`` and ``repro fleet`` all write their
``--metrics`` and ``--trace`` output from these.

Merged order is deterministic: records are consumed in task-index order,
and the metric merge sorts its output, so the same fleet produces the
same artifacts regardless of worker count or scheduling.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from repro.fleet.report import FleetRunRecord
from repro.telemetry import TelemetrySnapshot
from repro.telemetry.spans import chrome_trace


def merged_telemetry(
    records: Sequence[FleetRunRecord],
) -> Optional[TelemetrySnapshot]:
    """Fold every run's telemetry snapshot into one, or None if no run
    carried telemetry."""
    snapshots = [
        TelemetrySnapshot.from_dict(record.report["telemetry"])
        for record in records
        if record.report is not None and record.report.get("telemetry")
    ]
    if not snapshots:
        return None
    return TelemetrySnapshot.merged(snapshots)


def fleet_chrome_trace(
    records: Sequence[FleetRunRecord],
) -> Dict[str, object]:
    """Chrome trace-event JSON spanning the whole fleet: each traced run
    is its own track (``pid`` = task index, labelled with the workload
    name), laid out as :meth:`repro.telemetry.SpanTracer.to_chrome_trace`
    lays out one machine."""
    return chrome_trace(
        (record.index, record.name, record.spans)
        for record in records
        if record.spans
    )


def write_fleet_trace(path: str, records: Sequence[FleetRunRecord]) -> None:
    """Write the fleet trace: ``*.jsonl`` → one span per line (tagged
    with its run), anything else → Chrome trace-event JSON."""
    if str(path).endswith(".jsonl"):
        lines = [
            json.dumps({**span, "run": record.name}, default=str)
            for record in records
            for span in record.spans or ()
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(fleet_chrome_trace(records), indent=1)
    with open(path, "w") as fh:
        fh.write(text)
