"""The unified workload registry: name/tag lookup over every table,
and every import path of a table agreeing with it."""

import importlib

import pytest

from repro.programs import registry
from repro.programs.registry import (
    REGISTRIES,
    REGISTRY_ORDER,
    entries,
    find,
    get,
    names,
    registry_workloads,
    workload_tags,
    workloads,
)


class TestRoundTrip:
    def test_every_row_reachable_by_name(self):
        for key, workload in entries(
            REGISTRY_ORDER + ("adversarial",)
        ):
            fetched = get(workload.name)
            assert fetched.name == workload.name
            assert fetched.source == workload.source
            assert get(workload.name, keys=(key,)).name == workload.name

    def test_no_name_collisions_across_registries(self):
        all_names = names(REGISTRY_ORDER + ("adversarial",))
        assert len(all_names) == len(set(all_names))

    def test_default_order_excludes_adversarial(self):
        assert "adversarial" not in REGISTRY_ORDER
        assert "adversarial" in REGISTRIES

    def test_get_unknown_name_raises(self):
        with pytest.raises(LookupError, match="no workload named"):
            get("definitely not a row")

    def test_get_builds_a_fresh_row_each_call(self):
        # Rows are mutable dataclasses: a lookup must not hand out one
        # another caller could have changed.
        first = get("superforker")
        first.source = "changed"
        assert get("superforker") is not first
        assert get("superforker").source == next(
            w for w in registry_workloads("8")
            if w.name == "superforker"
        ).source

    def test_get_narrowed_to_keys(self):
        assert get("pma", keys=("8",)).name == "pma"
        with pytest.raises(LookupError):
            get("pma", keys=("4",))


class TestTags:
    def test_table8_trojans(self):
        rows = find({"trojan", "table8"})
        assert [w.name for w in rows] == [
            w.name for w in registry_workloads("8")
        ]

    def test_trusted_rows_split_benign_and_low(self):
        # Table 7 is the false-positive study: most rows are benign,
        # a few are expected LOW (the paper's reported false alarms).
        benign = find({"benign"}, keys=("7",))
        low = find({"low"}, keys=("7",))
        assert {w.name for w in low} == {"make", "g++", "xeyes"}
        assert len(benign) + len(low) == len(registry_workloads("7"))

    def test_verdict_value_is_a_tag(self):
        highs = find({"high", "exploit"})
        assert {"ElmExploit", "grabem", "vixie crontab",
                "superforker", "pma"} <= {w.name for w in highs}

    def test_xfail_tag_marks_open_evasions(self):
        open_rows = find({"xfail"})
        assert all(w.xfail for w in open_rows)
        assert "slow-and-low forker" in {w.name for w in open_rows}
        fixed = get("masquerade libc hardcode")
        assert "xfail" not in workload_tags("adversarial", fixed)

    def test_find_requires_every_tag(self):
        assert find({"trojan", "benign"}) == []


class TestImportPaths:
    """Every import path of a table's rows agrees with the unified map."""

    def test_fleet_refs_reexports_the_same_objects(self):
        from repro.fleet import refs

        assert refs.REGISTRIES is REGISTRIES
        assert refs.REGISTRY_ORDER is REGISTRY_ORDER
        assert refs.registry_workloads is registry_workloads

    def test_package_factories_back_the_unified_keys(self):
        from repro.programs.exploits import table8_workloads
        from repro.programs.macro import macro_workloads
        from repro.programs.trusted import table7_workloads

        assert REGISTRIES["8"] == ("repro.programs.exploits",
                                   "table8_workloads")
        assert [w.name for w in table8_workloads()] == \
            [w.name for w in registry_workloads("8")]
        assert [w.name for w in table7_workloads()] == \
            [w.name for w in registry_workloads("7")]
        assert [w.name for w in macro_workloads()] == \
            [w.name for w in registry_workloads("macro")]

    @pytest.mark.parametrize("package", ["exploits", "macro", "trusted"])
    def test_deprecated_registry_modules_are_gone(self, package):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.programs.{package}.registry")

    def test_workloads_helper_matches_entries(self):
        assert [w.name for w in workloads(("4",))] == names(("4",))
        assert registry.workloads is workloads
