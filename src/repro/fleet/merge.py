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

Merged order is deterministic: records are consumed in task-index order,
and the metric merge sorts its output, so the same fleet produces the
same artifacts regardless of worker count or scheduling.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.fleet.report import FleetRunRecord
from repro.telemetry import TelemetrySnapshot


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
    """Chrome trace-event JSON spanning the whole fleet.

    Each run becomes its own track: ``pid`` is the task index (labelled
    with the workload name and worker), ``tid`` is the span's guest pid
    within the run — the same layout
    :meth:`repro.telemetry.SpanTracer.to_chrome_trace` uses for one
    machine, replicated per run.
    """
    events: List[Dict[str, object]] = []
    for record in records:
        if not record.spans:
            continue
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": record.index,
            "tid": 0,
            "args": {
                "name": f"{record.name} (worker {record.worker})"
            },
        })
        for span in record.spans:
            args: Dict[str, object] = {
                "start_tick": span["start_tick"],
                "end_tick": span["end_tick"],
                "span_id": span["span_id"],
            }
            if span.get("parent_id") is not None:
                args["parent_id"] = span["parent_id"]
            for key, value in (span.get("attrs") or {}).items():
                args[key] = value if isinstance(
                    value, (int, float, bool)
                ) else str(value)
            events.append({
                "name": span["name"],
                "cat": span["category"],
                "ph": "X",
                "ts": float(span["start_wall"]) * 1e6,
                "dur": float(span["duration_wall"]) * 1e6,
                "pid": record.index,
                "tid": span["tid"],
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


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
