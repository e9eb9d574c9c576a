"""The adversarial mutator: determinism, semantics preservation, and
the source-model round trip it is built on."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.api import Session
from repro.isa.assembler import parse_source, render_statements
from repro.programs.mutate import (
    MUTATION_CLASSES,
    MutationRecipe,
    mutate_workload,
    variant_name,
    variants,
)
from repro.programs.registry import get

#: Fast parents spanning the interesting shapes: control flow + libc
#: calls + data section (loop forker), string building + argv/env
#: (nlspath), stdin + taint flow (grabem).
FAST_PARENTS = ("loop forker", "nlspath", "grabem")


def render_source(stmts):
    return render_statements(stmts)[0]


class TestSourceModelRoundTrip:
    @pytest.mark.parametrize("name", FAST_PARENTS)
    def test_parse_render_preserves_the_program(self, name):
        parent = get(name)
        rendered = render_source(parse_source(parent.source))
        # Round-tripped source assembles to the same text/data layout.
        from dataclasses import replace

        a = parent.image()
        b = type(parent)(
            name=parent.name, program_path=parent.program_path,
            source=rendered,
        ).image()
        # Source line numbers legitimately move; everything else holds.
        assert [replace(i, line=0) for i in a.text] == \
            [replace(i, line=0) for i in b.text]
        assert a.data == b.data and a.data_size == b.data_size
        assert a.symbols == b.symbols

    def test_render_is_a_fixpoint(self):
        source = get("loop forker").source
        once = render_source(parse_source(source))
        twice = render_source(parse_source(once))
        assert once == twice


class TestDeterminism:
    def test_same_coordinates_same_bytes(self):
        parent = get("loop forker")
        for klass in MUTATION_CLASSES:
            a = mutate_workload(parent, klass, 5)
            b = mutate_workload(parent, klass, 5)
            assert a.source == b.source
            assert a.program_path == b.program_path
            assert a.recipe == b.recipe

    def test_different_seeds_differ(self):
        parent = get("loop forker")
        a = mutate_workload(parent, "deadcode", 0)
        b = mutate_workload(parent, "deadcode", 1)
        assert a.source != b.source

    def test_hashseed_independent_across_processes(self):
        """The contract the fleet depends on: workers in *other*
        processes (any PYTHONHASHSEED) regenerate identical variants."""
        script = (
            "from repro.programs.mutate import mutate_workload\n"
            "from repro.programs.registry import get\n"
            "v = mutate_workload(get('grabem'), 'rename-labels', 3)\n"
            "import sys; sys.stdout.write(v.source)\n"
        )
        repo = pathlib.Path(__file__).resolve().parents[2]
        outputs = set()
        for hashseed in ("0", "1", "random"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(repo / "src")
            env["PYTHONHASHSEED"] = hashseed
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env=env, cwd=str(repo),
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert outputs == {
            mutate_workload(get("grabem"), "rename-labels", 3).source
        }

    def test_variants_factory_resolves_by_ref(self):
        from repro.fleet.refs import WorkloadRef

        ref = WorkloadRef(
            module="repro.programs.mutate",
            factory="variants",
            name=variant_name("loop forker", "substitute", 2),
            params=("loop forker", "substitute", 2),
        )
        resolved = ref.resolve()
        assert resolved.name == "loop forker~substitute#2"
        assert resolved.source == \
            mutate_workload(get("loop forker"), "substitute", 2).source

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation class"):
            mutate_workload(get("loop forker"), "polymorphic", 0)
        with pytest.raises(LookupError):
            variants("no such parent", "deadcode", 0)


class TestRecipe:
    def test_recipe_records_coordinates_and_ops(self):
        parent = get("nlspath")
        v = mutate_workload(parent, "deadcode", 9)
        assert isinstance(v.recipe, MutationRecipe)
        assert v.recipe.parent == "nlspath"
        assert v.recipe.klass == "deadcode"
        assert v.recipe.seed == 9
        assert v.recipe.ops
        assert v.recipe.to_dict()["ops"] == list(v.recipe.ops)

    def test_variant_inherits_expectations(self):
        parent = get("grabem")
        v = mutate_workload(parent, "rename-labels", 0)
        assert v.expected_verdict is parent.expected_verdict
        assert v.expected_rules == parent.expected_rules
        assert v.stdin == parent.stdin

    def test_rename_never_aliases_a_referenced_path(self):
        """Installing an execve Trojan *as* the binary it execs would
        make it exec itself forever — a different program.  The new
        path must never appear in the parent's string data (comments
        don't count: they never reach the guest)."""
        def strings(workload):
            return " ".join(
                op
                for stmt in parse_source(workload.source)
                if stmt.mnemonic in (".asciz", ".ascii")
                for op in stmt.operands
            )

        parent = get("Hardcode")  # execve("/bin/ls")
        elm = get("ElmExploit")   # system("...| /usr/sbin/sendmail -t")
        for seed in range(40):
            v = mutate_workload(parent, "rename-paths", seed)
            assert v.program_path != "/bin/ls"
            assert v.program_path not in strings(parent)
            e = mutate_workload(elm, "rename-paths", seed)
            assert e.program_path not in strings(elm)
            # system() callers exec /bin/sh via libc's own string —
            # masquerading as the shell would self-exec too.
            assert e.program_path != "/bin/sh"

    def test_rename_paths_rewrites_argv_head(self):
        parent = get("nlspath")
        # nlspath has no explicit argv; synthesize one through a parent
        # that does (table 6 rows carry argv[0] = program path).
        parent6 = get("File -> File: Hardcoded, Hardcoded")
        assert parent6.argv[0] == parent6.program_path
        v = mutate_workload(parent6, "rename-paths", 1)
        assert v.program_path != parent6.program_path
        assert v.argv[0] == v.program_path
        assert v.argv[1:] == parent6.argv[1:]
        assert v.source == render_source(parse_source(parent6.source))
        del parent


class TestSemanticsPreservation:
    """Variants must classify exactly like their parents — on Trojans
    (same verdict, same rules) and on benign programs (no new alarms)."""

    @pytest.mark.parametrize("name", FAST_PARENTS)
    @pytest.mark.parametrize("klass", MUTATION_CLASSES)
    def test_trojan_variants_keep_the_verdict(self, name, klass):
        session = Session()
        variant = mutate_workload(get(name), klass, 1)
        report = session.run_workload(variant)
        assert variant.classified_correctly(report), (
            f"{variant.name}: expected "
            f"{variant.expected_verdict.value}, got "
            f"{report.verdict.value} via {variant.recipe.ops}"
        )

    @pytest.mark.parametrize("klass", MUTATION_CLASSES)
    def test_benign_parent_stays_benign(self, klass):
        session = Session()
        variant = mutate_workload(get("wc"), klass, 1)
        report = session.run_workload(variant)
        assert variant.classified_correctly(report), (
            f"{variant.name}: benign parent flagged "
            f"{report.verdict.value} via {variant.recipe.ops}"
        )
