"""``cluster_tasks``: opcode-simhash ordering of fleet tasks.

Nothing in the fleet calls it any more — tasks go to whichever worker
is idle — but it stays while ``perfbench/tracer.py`` wraps it by name,
so its ordering contract stays tested: deterministic, and every task
kept, unresolvable ones included; the simhash collides on a patched
constant and the chain keeps near-duplicates adjacent.  Plus the fleet
invariant that
replaced placement strategies: merged reports do not depend on the
worker count.
"""

import json

import pytest

from repro.core.options import RunOptions
from repro.fleet import FleetTask, make_tasks, run_fleet, workload_refs
from repro.fleet.engine import (
    _cluster_order,
    _hamming64,
    _simhash64,
    cluster_tasks,
)
from repro.fleet.refs import WorkloadRef
from repro.isa.assembler import assemble

SOURCE = """
.data
msg: .asciz "/etc/passwd"
.text
main:
    mov eax, 5
    mov ebx, msg
    int 0x80
    mov eax, 4
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
"""


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


class TestSimhash:
    def test_deterministic(self):
        image = assemble("/bin/t", SOURCE)
        assert _simhash64(image.text) == _simhash64(image.text)

    def test_patched_constant_collides(self):
        # One changed immediate keeps every opcode n-gram: simhash equal.
        a = assemble("/bin/t", SOURCE)
        b = assemble("/bin/t", SOURCE.replace("mov ebx, 0", "mov ebx, 7"))
        assert _simhash64(a.text) == _simhash64(b.text)

    def test_structural_change_diverges_more_than_variants(self):
        base = assemble("/bin/t", SOURCE)
        variant = assemble(
            "/bin/t", SOURCE + "\n    mov eax, 1\n    int 0x80\n"
        )
        different = assemble("/bin/t", """
.text
main:
    push ebp
    cmp eax, 0
    jnz out
    add eax, 1
    sub ebx, 2
    xor ecx, ecx
out:
    pop ebp
    ret
""")
        near = _hamming64(_simhash64(base.text), _simhash64(variant.text))
        far = _hamming64(_simhash64(base.text), _simhash64(different.text))
        assert near < far
        assert _hamming64(_simhash64(base.text), _simhash64(base.text)) == 0

    def test_empty_text_is_zero(self):
        assert _simhash64([]) == 0


class TestClusterOrder:
    def test_near_duplicates_become_adjacent(self):
        order = _cluster_order([
            ("a", 0b0000), ("x", 0xFFFFFFFFFFFFFFFF),
            ("b", 0b0001), ("y", 0xFFFFFFFFFFFFFFF0),
        ])
        assert order.index("b") == order.index("a") + 1 or \
            order.index("a") == order.index("b") + 1
        assert abs(order.index("x") - order.index("y")) == 1

    def test_deterministic_under_input_order(self):
        pairs = [("a", 5), ("b", 6), ("c", 1000), ("d", 1001)]
        assert _cluster_order(pairs) == _cluster_order(pairs)
        # Distinct hashes give one order whatever the input order.
        assert _cluster_order(list(reversed(pairs))) == ["a", "b", "c", "d"]
        assert _cluster_order(pairs) == ["a", "b", "c", "d"]

    def test_empty(self):
        assert _cluster_order([]) == []


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
