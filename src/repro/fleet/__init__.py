"""repro.fleet — multi-process execution of workload sets.

The paper's evaluation is dozens of independent monitored runs (the §9
table sweep is 62 workloads; a chaos sweep is workloads × seeds).  Each
run is a fresh machine, so they parallelize perfectly — this package
feeds them to worker processes while keeping the merged output
bit-identical to a serial sweep:

* :mod:`refs` — picklable :class:`WorkloadRef`/:class:`FleetTask` units
  and the canonical :data:`REGISTRIES` map;
* :mod:`worker` — the process entrypoint: one warm
  :class:`~repro.api.Session` per worker, watchdog/monitor-fault retries
  with backoff, streamed wire records;
* :mod:`engine` — :func:`run_fleet`: spawn, hand each worker its next
  task as it finishes one, collect, order by task index;
* :mod:`merge` / :mod:`report` — fleet-level telemetry merging, Chrome
  traces, and the :class:`FleetReport` roll-up.

Entry points: ``repro fleet`` on the command line, or::

    from repro.fleet import run_fleet, workload_refs

    fleet = run_fleet(workload_refs(), workers=4)
    assert not fleet.failures
"""

from repro.fleet.engine import DEFAULT_WORKERS, run_fleet
from repro.fleet.merge import (
    fleet_chrome_trace,
    merged_telemetry,
    write_fleet_trace,
)
from repro.fleet.refs import (
    REGISTRIES,
    REGISTRY_ORDER,
    FleetTask,
    WorkloadRef,
    make_tasks,
    registry_workloads,
    workload_refs,
)
from repro.fleet.report import (
    CANCELLED_PREFIX,
    FLEET_SCHEMA_VERSION,
    FleetReport,
    FleetRunRecord,
)
from repro.fleet.worker import (
    retry_reason,
    run_task_with_retry,
    worker_main,
)

__all__ = [
    "run_fleet",
    "DEFAULT_WORKERS",
    "REGISTRIES",
    "REGISTRY_ORDER",
    "WorkloadRef",
    "FleetTask",
    "make_tasks",
    "registry_workloads",
    "workload_refs",
    "FleetReport",
    "FleetRunRecord",
    "FLEET_SCHEMA_VERSION",
    "CANCELLED_PREFIX",
    "retry_reason",
    "run_task_with_retry",
    "worker_main",
    "merged_telemetry",
    "fleet_chrome_trace",
    "write_fleet_trace",
]
