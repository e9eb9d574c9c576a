"""``cluster_tasks``: triage-simhash ordering of fleet tasks.

Nothing in the fleet calls it any more — tasks go to whichever worker
is idle — but it stays while ``perfbench/tracer.py`` wraps it by name,
so its ordering contract stays tested: deterministic, and every task
kept, unresolvable ones included.  Plus the fleet invariant that
replaced placement strategies: merged reports do not depend on the
worker count.
"""

import json

import pytest

from repro.core.options import RunOptions
from repro.fleet import FleetTask, make_tasks, run_fleet, workload_refs
from repro.fleet.engine import cluster_tasks
from repro.fleet.refs import WorkloadRef


def _tasks(table="4"):
    return make_tasks(workload_refs([table]))


class TestClusterTasks:
    def test_every_task_kept_exactly_once(self):
        tasks = _tasks("8")
        ordered = cluster_tasks(tasks)
        assert sorted(t.index for t in ordered) == [t.index for t in tasks]

    def test_deterministic_order(self):
        tasks = _tasks("4")
        assert [t.ref.name for t in cluster_tasks(tasks)] == \
            [t.ref.name for t in cluster_tasks(tasks)]

    def test_unresolvable_ref_clusters_at_zero_not_crash(self):
        broken = FleetTask(
            index=0,
            ref=WorkloadRef(module="repro.no_such_module",
                            factory="nope", name="ghost"),
            options=RunOptions(),
        )
        ordered = cluster_tasks([broken] + _tasks("4"))
        assert len(ordered) == 1 + len(_tasks("4"))


@pytest.mark.parametrize("workers", (2, 3, 4))
def test_fleet_reports_match_serial_at_any_worker_count(workers):
    refs = workload_refs(["4"])
    serial = run_fleet(refs, workers=1)
    fleet = run_fleet(refs, workers=workers)

    def reports(fleet):
        return {
            r.name: json.dumps(r.report, sort_keys=True, default=str)
            for r in fleet.runs
        }

    assert reports(fleet) == reports(serial)
    assert not fleet.failures
