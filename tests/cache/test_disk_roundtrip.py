"""The disk tier is lossless: a report written by one process and read
back by a fresh one is the report execution produced.

Across the 62-workload matrix and a sample of adversarial sweep
variants, a fresh process's disk hit must match the fresh report by
``repr`` (every field, events and warnings included), evidence
``repr``, event strings and ``to_dict()``.
"""

import hashlib
import json
import os
import subprocess
import sys

from repro.advers import plan_sweep
from repro.api import Session, VerdictCache
from repro.cache.digest import workload_key
from repro.core.options import RunOptions
from repro.fleet import workload_refs

#: Every tenth cell of a one-seed-per-class sweep.
SWEEP_SAMPLE = 10

_CHILD = """
import json, sys
from repro.api import VerdictCache
from tests.cache.test_disk_roundtrip import fingerprint
keys = json.load(sys.stdin)
cache = VerdictCache(disk_dir=sys.argv[1])
prints = {}
for key in keys:
    hit = cache.lookup(key)
    prints[key] = None if hit is None else fingerprint(hit)
assert cache.stats.disk_hits == len(keys), cache.snapshot()
json.dump(prints, sys.stdout)
"""


def fingerprint(report):
    """Digests of the four views a disk hit must reproduce."""
    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return {
        "repr": digest(repr(report)),
        "evidence": digest(repr([w.evidence for w in report.warnings])),
        "events": digest("\n".join(str(e) for e in report.events)),
        "to_dict": digest(json.dumps(report.to_dict(), sort_keys=True,
                                     default=str)),
    }


def _workloads():
    for ref in workload_refs(None):
        yield ref.resolve()
    for cell in plan_sweep()[::SWEEP_SAMPLE]:
        yield cell.ref.resolve()


def test_a_fresh_process_reads_every_report_back_losslessly(tmp_path):
    store = str(tmp_path / "cache")
    session = Session(cache=VerdictCache(disk_dir=store))
    expected = {}
    for workload in _workloads():
        report = session.run_workload(workload)
        expected[workload_key(workload, RunOptions())] = (
            workload.name, fingerprint(report)
        )
    assert len(expected) > 62
    assert session.cache.stats.stores == len(expected)

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]
    ))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, store],
        input=json.dumps(sorted(expected)), capture_output=True,
        text=True, cwd=root, env=env, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    for key, (name, prints) in expected.items():
        assert got[key] == prints, f"{name}: disk hit differs"
