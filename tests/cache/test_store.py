"""The two-tier verdict cache store: LRU, disk, policy, and metrics.

Safety properties: a hit is the stored (immutable) value itself, a
corrupt, mis-keyed or foreign disk entry is a miss never an error, a
planted disk entry builds nothing outside the whitelisted data types,
concurrent writers racing on a content-addressed key are harmless, and
transient outcomes (watchdog, degraded) are never remembered.
"""

import json
import multiprocessing
import os
import pickle
from types import SimpleNamespace

import pytest

from repro.cache.store import (
    BYPASS_ANALYZER,
    BYPASS_DISABLED,
    BYPASS_FAULTS,
    BYPASS_OPAQUE_SETUP,
    BYPASS_TELEMETRY,
    DiskStore,
    MemoryLRU,
    VerdictCache,
    bypass_reason,
    cacheable_report,
    cacheable_report_dict,
    loads,
    merge_cache_stats,
)
from repro.core.options import RunOptions
from repro.telemetry.metrics import MetricsRegistry


def _fake_report(reason="exit", degraded=False, verdict="benign"):
    return SimpleNamespace(
        result=SimpleNamespace(reason=reason),
        degraded=degraded,
        program="/bin/x",
        verdict=SimpleNamespace(value=verdict),
        warnings=[],
    )


class TestMemoryLRU:
    def test_evicts_least_recently_used(self):
        lru = MemoryLRU(capacity=2)
        lru.put("a", b"1")
        lru.put("b", b"2")
        assert lru.get("a") == b"1"  # refresh a
        lru.put("c", b"3")  # evicts b
        assert lru.get("b") is None
        assert lru.get("a") == b"1"
        assert lru.get("c") == b"3"
        assert lru.evictions == 1

    def test_capacity_floor_is_one(self):
        lru = MemoryLRU(capacity=0)
        lru.put("a", b"1")
        lru.put("b", b"2")
        assert len(lru) == 1


def _rvc_files(root):
    return [os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(root)
            for name in names if name.endswith(".rvc")]


class TestDiskStore:
    def test_round_trip_across_instances(self, tmp_path):
        DiskStore(str(tmp_path)).write("k1", 42, {"m": 1})
        entry = DiskStore(str(tmp_path)).read("k1")
        assert (entry.meta, entry.value) == ({"m": 1}, 42)
        assert entry.size == os.path.getsize(_rvc_files(tmp_path)[0])

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = DiskStore(str(tmp_path))
        store.write("k1", 1, {})
        path = store._path("k1")
        with open(path, "wb") as fh:
            fh.write(b"\x80garbage not json")
        assert store.read("k1") is None
        assert store.corrupt == 1

    def test_renamed_entry_cannot_answer_for_another_key(self, tmp_path):
        # The envelope's embedded key is checked on read.
        store = DiskStore(str(tmp_path))
        store.write("aaothera", 1, {})
        os.rename(store._path("aaothera"), store._path("aamangled"))
        assert store.read("aamangled") is None
        assert store.corrupt == 1

    def test_entries_and_clear(self, tmp_path):
        store = DiskStore(str(tmp_path))
        for key in ("aa1", "ab2", "aa3"):
            store.write(key, key, {"m": key})
        listed = list(store.entries())
        assert sorted(k for k, _, _ in listed) == ["aa1", "aa3", "ab2"]
        assert all(meta["m"] == key for key, meta, _ in listed)
        assert store.clear() == 3
        assert list(store.entries()) == []

    def test_unencodable_value_writes_nothing(self, tmp_path):
        store = DiskStore(str(tmp_path))
        assert not store.write("k1", object(), {})
        assert _rvc_files(tmp_path) == []


class TestVerdictCache:
    def test_hit_is_the_stored_value(self, tmp_path):
        value = {"report": {"verdict": "high"}, "warnings": ()}
        cache = VerdictCache(disk_dir=str(tmp_path))
        cache.store("k", value)
        assert cache.lookup("k") is value
        assert cache.lookup("k") is value
        assert cache.stats.mem_hits == 2

    def test_disk_tier_survives_a_new_process_view(self, tmp_path):
        value = {"report": {"verdict": "high"}}
        a = VerdictCache(disk_dir=str(tmp_path), namespace="serve")
        a.store("k", value)
        b = VerdictCache(disk_dir=str(tmp_path), namespace="serve")
        assert b.lookup("k") == value
        assert b.stats.disk_hits == 1
        # Promoted to memory: the second lookup is a memory hit.
        assert b.lookup("k") == value
        assert b.stats.mem_hits == 1

    def test_namespaces_do_not_collide(self, tmp_path):
        session = VerdictCache(disk_dir=str(tmp_path), namespace="session")
        serve = VerdictCache(disk_dir=str(tmp_path), namespace="serve")
        session.store("k", "report-object")
        assert serve.lookup("k") is None
        serve.store("k", {"report": "wire-dict"})
        assert session.lookup("k") == "report-object"
        assert serve.lookup("k") == {"report": "wire-dict"}

    def test_watchdog_and_degraded_reports_are_never_stored(self):
        cache = VerdictCache()
        assert not cache.store_report("k1", _fake_report(reason="watchdog"))
        assert not cache.store_report("k2", _fake_report(degraded=True))
        assert cache.store_report("k3", _fake_report())
        assert cache.lookup("k1") is None
        assert cache.lookup("k2") is None
        assert cache.lookup("k3") is not None
        assert cache.stats.store_skips == 2

    def test_unencodable_value_is_stored_in_no_tier(self, tmp_path):
        cache = VerdictCache(disk_dir=str(tmp_path))
        assert not cache.store("k", lambda: None)
        assert cache.stats.unencodable == 1
        assert cache.lookup("k") is None
        assert _rvc_files(tmp_path) == []

    def test_snapshot_shape(self, tmp_path):
        cache = VerdictCache(disk_dir=str(tmp_path))
        cache.store("k", 1)
        cache.lookup("k")
        cache.lookup("absent")
        cache.bypass(BYPASS_FAULTS)
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5
        assert snap["stores"] == 1
        assert snap["bypass"] == {"faults": 1}
        assert snap["disk_dir"] == str(tmp_path)

    def test_metrics_families_pretouch_and_count(self):
        registry = MetricsRegistry()
        cache = VerdictCache(metrics=registry)
        text = registry.render()
        # Families visible before any traffic (scrape-friendly).
        for family in ("cache_hits_total", "cache_misses_total",
                       "cache_stores_total", "cache_bypass_total",
                       "cache_entries", "cache_lookup_seconds"):
            assert family in text
        cache.store("k", 1)
        cache.lookup("k")
        cache.lookup("absent")
        cache.bypass(BYPASS_DISABLED)
        assert registry.counter("cache_hits_total", tier="memory").value == 1
        assert registry.counter("cache_misses_total").value == 1
        assert registry.counter("cache_stores_total").value == 1
        assert registry.counter(
            "cache_bypass_total", reason="disabled"
        ).value == 1


class _UnpickleSentinel:
    """Records every unpickling: loading one anywhere appends to
    ``loads``.  Proves no store runs ``pickle.loads`` on planted bytes
    (which would be arbitrary code execution)."""

    loads: list = []

    def __reduce__(self):
        return (_UnpickleSentinel._record, ())

    @staticmethod
    def _record():
        _UnpickleSentinel.loads.append("unpickled")
        return _UnpickleSentinel()


class _BuildSentinel:
    """Records every construction: a decoder that built a type named in
    a planted entry would append to ``built``."""

    built: list = []

    def __init__(self, **fields):
        _BuildSentinel.built.append(fields)


NAMESPACES = ("session", "serve")


class TestDiskFormat:
    """Every disk entry is data-only JSON: reading one builds only the
    whitelisted report types and never executes anything."""

    def _value(self):
        return {"report": {"verdict": "trojan", "warnings": []},
                "ok": True, "warnings": [{"rule": "R1"}],
                "exit_codes": {1: 0}, "faults": ((3, "segv"),),
                # A string key that looks like a type tag stays data.
                "files": {"$tuple": [1], "/etc/passwd": "root"}}

    def test_round_trip_across_instances(self, tmp_path):
        a = VerdictCache(disk_dir=str(tmp_path), namespace="serve")
        a.store("k", self._value())
        b = VerdictCache(disk_dir=str(tmp_path), namespace="serve")
        assert b.lookup("k") == self._value()
        assert b.stats.disk_hits == 1
        assert "codec" not in b.snapshot()

    def test_disk_entries_are_json(self, tmp_path):
        cache = VerdictCache(disk_dir=str(tmp_path), namespace="serve")
        cache.store("k", self._value(), meta={"program": "/bin/x"})
        files = _rvc_files(tmp_path)
        assert len(files) == 1
        with open(files[0], "rb") as fh:
            payload = fh.read()
        envelope = json.loads(payload)
        assert envelope["key"] == "serve-k"
        assert envelope["meta"] == {"namespace": "serve",
                                    "program": "/bin/x"}
        # Plain JSON stays plain; the rest is tagged with its type.
        assert envelope["value"]["report"] == self._value()["report"]
        assert envelope["value"]["exit_codes"] == {"$dict": [[1, 0]]}
        assert loads(payload)["value"] == self._value()

    @pytest.mark.parametrize("namespace", NAMESPACES)
    def test_planted_pickle_bytes_are_never_unpickled(self, tmp_path,
                                                      namespace):
        """A writable cache_dir must not grant code execution: a valid
        *pickle* envelope planted under the right key reads as corrupt
        (a miss), without unpickling, in every namespace."""
        cache = VerdictCache(disk_dir=str(tmp_path), namespace=namespace)
        key = f"{namespace}-kk"
        os.makedirs(os.path.dirname(cache.disk._path(key)), exist_ok=True)
        with open(cache.disk._path(key), "wb") as fh:
            fh.write(pickle.dumps({
                "key": key, "meta": {}, "value": _UnpickleSentinel(),
            }))
        assert cache.lookup("kk") is None
        assert _UnpickleSentinel.loads == []
        assert cache.disk.corrupt == 1

    @pytest.mark.parametrize("namespace", NAMESPACES)
    @pytest.mark.parametrize("planted", [
        {"$_BuildSentinel": {}},
        {"$tuple": [{"$RunResult": {"reason": "x", "ticks": 0,
                                    "instructions": 0,
                                    "exit_codes": {"$_BuildSentinel": {}}}}]},
        {"$dict": [["k", {"$Popen": {"args": ["true"]}}]]},
        {"$tuple": [], "$Popen": {"args": ["true"]}},
    ], ids=["top-level", "nested", "stdlib", "second-key"])
    def test_planted_foreign_type_builds_nothing(self, tmp_path,
                                                 namespace, planted):
        cache = VerdictCache(disk_dir=str(tmp_path), namespace=namespace)
        key = f"{namespace}-kk"
        os.makedirs(os.path.dirname(cache.disk._path(key)), exist_ok=True)
        with open(cache.disk._path(key), "w") as fh:
            json.dump({"key": key, "meta": {}, "value": planted}, fh)
        assert cache.lookup("kk") is None
        assert _BuildSentinel.built == []
        assert cache.disk.corrupt == 1

    def test_old_pickle_entry_misses_then_is_overwritten(self, tmp_path):
        cache = VerdictCache(disk_dir=str(tmp_path), namespace="serve")
        path = cache.disk._path("serve-k")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(
                {"key": "serve-k", "meta": {}, "value": {"report": {}}},
                protocol=4,
            ))
        assert cache.lookup("k") is None
        assert cache.stats.misses == 1
        assert cache.store("k", {"report": {"verdict": "new"}})
        fresh = VerdictCache(disk_dir=str(tmp_path), namespace="serve")
        assert fresh.lookup("k") == {"report": {"verdict": "new"}}
        assert fresh.stats.disk_hits == 1


def _plant(cache, key, value):
    """Overwrite the disk entry under ``key`` with a decodable ``value``."""
    full = f"{cache.namespace}-{key}"
    path = cache.disk._path(full)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"key": full, "meta": {}, "value": value}, fh)


class TestHitShape:
    """A decodable disk entry of the wrong shape for its namespace is
    corrupt: a miss, counted, and never promoted to the memory tier."""

    @pytest.mark.parametrize("namespace,planted", [
        ("session", {"report": {"verdict": "benign"}}),
        ("session", "report-object"),
        ("serve", [1, 2]),
        ("serve", {"ok": True}),
        ("serve", {"report": [1]}),
    ], ids=["session-dict", "session-str", "serve-list", "serve-no-report",
            "serve-report-list"])
    def test_wrong_shape_is_a_corrupt_miss(self, tmp_path, namespace,
                                           planted):
        registry = MetricsRegistry()
        cache = VerdictCache(disk_dir=str(tmp_path), namespace=namespace,
                             metrics=registry)
        _plant(cache, "k", planted)
        assert cache.lookup("k") is None
        assert cache.lookup("k") is None  # not promoted: read again
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert cache.disk.corrupt == 2
        assert len(cache.memory) == 0
        assert cache.snapshot()["disk_corrupt"] == 2
        assert registry.value("cache_corrupt_total") == 2

    def test_serve_shape_is_a_hit(self, tmp_path):
        cache = VerdictCache(disk_dir=str(tmp_path), namespace="serve")
        value = {"report": {"verdict": "high"}, "ok": True}
        _plant(cache, "k", value)
        assert cache.lookup("k") == value
        assert cache.stats.disk_hits == 1

    def test_planted_dict_for_a_session_is_rerun(self, tmp_path):
        from repro.api import Session
        from repro.core.report import RunReport

        source = (
            ".data\nmsg: .asciz \"/etc/passwd\"\n.text\nmain:\n"
            "    mov eax, 5\n    mov ebx, msg\n    int 0x80\n"
            "    mov eax, 1\n    mov ebx, 0\n    int 0x80\n"
        )
        first = Session(cache=VerdictCache(disk_dir=str(tmp_path)))
        fresh = first.run(source)
        (path,) = _rvc_files(tmp_path)
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["value"] = fresh.to_dict()  # a plain dict, not a report
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        session = Session(cache=VerdictCache(disk_dir=str(tmp_path)))
        report = session.run(source)
        assert type(report) is RunReport
        assert report.to_dict() == fresh.to_dict()
        assert session.cache.stats.hits == 0
        assert session.cache.disk.corrupt == 1
        # The re-run stored a real report over the planted entry.
        again = Session(cache=VerdictCache(disk_dir=str(tmp_path)))
        assert type(again.run(source)) is RunReport
        assert again.cache.stats.disk_hits == 1


class TestCacheDirPermissions:
    def test_fresh_root_is_private(self, tmp_path):
        root = tmp_path / "fresh"
        DiskStore(str(root))
        assert (root.stat().st_mode & 0o777) == 0o700

    def test_existing_root_mode_is_left_alone(self, tmp_path):
        root = tmp_path / "shared"
        root.mkdir()
        os.chmod(root, 0o755)
        DiskStore(str(root))
        assert (root.stat().st_mode & 0o777) == 0o755


class TestBypassPolicy:
    def test_disabled_wins_over_everything(self):
        options = RunOptions(cache=False, metrics=True)
        assert bypass_reason(options, telemetry=object(),
                             fault_injector=object()) == BYPASS_DISABLED

    def test_fault_injection_bypasses(self):
        from repro.faultinject import TRANSPARENT_PROFILE

        assert bypass_reason(RunOptions(),
                             fault_injector=object()) == BYPASS_FAULTS
        assert bypass_reason(
            RunOptions(fault_profile=TRANSPARENT_PROFILE)
        ) == BYPASS_FAULTS

    def test_telemetry_bypasses(self):
        assert bypass_reason(RunOptions(),
                             telemetry=object()) == BYPASS_TELEMETRY
        assert bypass_reason(RunOptions(metrics=True)) == BYPASS_TELEMETRY

    def test_analyzer_and_opaque_setup_bypass(self):
        assert bypass_reason(RunOptions(),
                             analyzer=object()) == BYPASS_ANALYZER
        assert bypass_reason(RunOptions(),
                             opaque_setup=True) == BYPASS_OPAQUE_SETUP

    def test_plain_run_is_cacheable(self):
        assert bypass_reason(RunOptions()) is None

    def test_wire_dict_policy_matches_object_policy(self):
        assert cacheable_report(_fake_report())
        assert cacheable_report_dict(
            {"result": {"reason": "exit"}, "degraded": False}
        )
        assert not cacheable_report_dict(
            {"result": {"reason": "watchdog"}, "degraded": False}
        )
        assert not cacheable_report_dict(
            {"result": {"reason": "exit"}, "degraded": True}
        )


def _writer(root, key, n):
    store = DiskStore(root)
    for _ in range(n):
        store.write(key, "same", {})


class TestConcurrentWriters:
    def test_racing_writers_on_one_key_are_harmless(self, tmp_path):
        """Content-addressed writes race benignly: whichever lands, the
        payload is identical and always readable."""
        root = str(tmp_path)
        procs = [
            multiprocessing.Process(target=_writer, args=(root, "kk", 50))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = DiskStore(root)
        entry = store.read("kk")
        assert entry is not None
        assert entry.value == "same"
        assert store.corrupt == 0


class TestMergeCacheStats:
    def test_counters_add_and_rate_recomputes(self):
        merged = merge_cache_stats([
            {"hits": 3, "misses": 1, "stores": 1, "bypass": {"faults": 2}},
            None,  # a worker without a cache contributes nothing
            {"hits": 1, "misses": 3, "stores": 3,
             "bypass": {"faults": 1, "disabled": 1}},
        ])
        assert merged["hits"] == 4 and merged["misses"] == 4
        assert merged["hit_rate"] == 0.5
        assert merged["stores"] == 4
        assert merged["bypass"] == {"disabled": 1, "faults": 3}
        assert merged["workers"] == 2

    def test_order_independent(self):
        parts = [
            {"hits": 1, "misses": 0, "bypass": {"a": 1}},
            {"hits": 0, "misses": 2, "bypass": {"b": 1}},
        ]
        assert merge_cache_stats(parts) == \
            merge_cache_stats(list(reversed(parts)))
