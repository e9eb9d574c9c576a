"""The warm-cache differential: cached replies are bit-identical.

The tentpole acceptance property, held across the paper's full
62-workload matrix: a verdict served from cache must be
indistinguishable — ``to_dict()``, rendered warnings with evidence,
verdict, exit — from executing the run, in serial sessions and across
fleet workers sharing one on-disk store.
"""

import json

from repro.api import Session, VerdictCache
from repro.fleet import run_fleet, workload_refs


def _dump(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, default=str)


class TestSerialDifferential:
    def test_all_62_workloads_hit_bit_identically(self):
        refs = workload_refs(None)
        assert len(refs) == 62
        session = Session(cache=VerdictCache())
        fresh = {}
        for ref in refs:
            workload = ref.resolve()
            fresh[ref.name, ref.module] = (
                workload, session.run_workload(workload)
            )
        assert session.cache.stats.misses == len(refs)
        assert session.cache.stats.hits == 0

        for (name, module), (workload, fresh_report) in fresh.items():
            hit = session.run_workload(workload)
            assert _dump(hit) == _dump(fresh_report), \
                f"{module}/{name}: cached reply differs from execution"
            # Evidence trails render identically too (provenance rides
            # inside the report).
            assert hit.render_warnings() == fresh_report.render_warnings()
            assert [str(e) for e in hit.events] == \
                [str(e) for e in fresh_report.events]
        assert session.cache.stats.hits == len(refs)

    def test_cached_replies_match_an_uncached_session(self):
        # A second, independent uncached session agrees with the hits.
        refs = workload_refs(["4"])
        cached = Session(cache=VerdictCache())
        plain = Session()
        for ref in refs:
            workload = ref.resolve()
            cached.run_workload(workload)  # populate
            hit = cached.run_workload(workload)  # hit
            baseline = plain.run_workload(workload)
            assert _dump(hit) == _dump(baseline), ref.name
        assert cached.cache.stats.hits == len(refs)


class TestFleetDifferential:
    def test_shared_store_warm_sweep_is_bit_identical(self, tmp_path):
        refs = workload_refs(["4", "8"])
        store = str(tmp_path / "cache")
        serial = run_fleet(refs, workers=1)
        cold = run_fleet(refs, workers=2, cache_dir=store)
        warm = [run_fleet(refs, workers=n, cache_dir=store) for n in (3, 4)]

        assert serial.cache_stats is None
        assert cold.cache_stats["misses"] == len(refs)
        assert cold.cache_stats["stores"] == len(refs)
        for fleet in warm:
            assert fleet.cache_stats["hits"] == len(refs)
            assert fleet.cache_stats["misses"] == 0

        by_name = lambda fleet: {  # noqa: E731
            r.name: json.dumps(r.report, sort_keys=True, default=str)
            for r in fleet.runs
        }
        for fleet in [cold, *warm]:
            assert by_name(fleet) == by_name(serial), fleet.workers

    def test_fleet_report_wire_shape_carries_cache(self, tmp_path):
        refs = workload_refs(["4"])
        fleet = run_fleet(refs, workers=2,
                          cache_dir=str(tmp_path / "c"))
        wire = fleet.to_dict()
        assert wire["cache"]["workers"] == 2
        assert wire["cache"]["hit_rate"] == 0.0
        # And the merge is deterministic: run again warm.
        warm = run_fleet(refs, workers=2, cache_dir=str(tmp_path / "c"))
        assert warm.to_dict()["cache"]["hits"] == len(refs)
