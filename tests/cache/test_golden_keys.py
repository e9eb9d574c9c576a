"""Verdict-cache keys are a stored contract: golden values.

A key names a report in every disk store that was ever written, so a
refactor of how images, options or environments are represented must
not move one.  ``golden_keys.json`` holds the keys of a tree from
before images became read-only mappings: ``workload_key`` for every
registry row, ``image_digest(libc_image())``, and the ``run_key`` and
``submission_key`` of two inline sources.  ``variants`` holds the
``workload_key`` of every variant of one sweep round
(``plan_sweep(per_class=1, seed=7)``) from a tree that assembled
variants from their rendered text: a variant assembled from its
statements must key the same, so a line-number slip fails here.  ``golden_disk/`` holds the
disk entry that tree's ``Session`` wrote for the first inline source;
it must still answer that run.

Regenerate only together with a bump of ``KEY_SCHEMA``::

    PYTHONPATH=src:. python -m tests.cache.test_golden_keys \
        > tests/cache/golden_keys.json
    PYTHONPATH=src:. python -m tests.cache.test_golden_keys --disk
"""

import json
import os
import shutil
import sys

from repro.advers import plan_sweep
from repro.api import Session, VerdictCache
from repro.cache.digest import (
    KEY_SCHEMA,
    CacheEnv,
    canon_bytes,
    image_digest,
    run_key,
    submission_key,
    workload_key,
)
from repro.core.engine import EngineCache
from repro.core.options import RunOptions
from repro.isa.assembler import assemble
from repro.programs import registry
from repro.programs.libc import libc_image
from repro.serve.protocol import Submission

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_keys.json")
GOLDEN_DISK = os.path.join(HERE, "golden_disk")
#: The sweep round whose variant keys are golden.
VARIANT_SEED = 7

#: Two inline guests with every environment ingredient a key hashes.
INLINE = (
    {
        "path": "/bin/reader",
        "source": (
            ".data\npath: .asciz \"/etc/motd\"\nbuf: .space 32\n.text\n"
            "main:\n    mov eax, 5\n    mov ebx, path\n    mov ecx, 0\n"
            "    int 0x80\n    mov ebx, eax\n    mov eax, 3\n"
            "    mov ecx, buf\n    mov edx, 32\n    int 0x80\n"
            "    mov eax, 0\n    ret\n"
        ),
        "argv": ["/bin/reader", "-q"],
        "stdin": None,
        "files": {"/etc/motd": "hello\n"},
        "peers": {},
    },
    {
        "path": "/usr/bin/echoer",
        "source": (
            ".data\nbuf: .space 1\n.text\nmain:\n    mov ebx, 0\n"
            "    mov ecx, buf\n    mov edx, 1\n    call read\n"
            "    mov ebx, 1\n    mov ecx, buf\n    mov edx, 1\n"
            "    call write\n    mov eax, 0\n    ret\n"
        ),
        "argv": None,
        "stdin": "x",
        "files": {},
        "peers": {"10.0.0.9:80": "", "10.0.0.7:25": "220 ready\r\n"},
    },
)


def _run_key(guest, image):
    return run_key(
        image,
        RunOptions(),
        argv=guest["argv"],
        stdin=guest["stdin"],
        cache_env=CacheEnv.from_mappings(guest["files"], guest["peers"]),
    )


def _submission(guest):
    return Submission(
        source=guest["source"],
        path=guest["path"],
        argv=tuple(guest["argv"]) if guest["argv"] is not None else None,
        stdin=guest["stdin"],
        files=guest["files"],
        peers=guest["peers"],
    )


def current_keys():
    """Every golden value, as this tree computes it."""
    options = RunOptions()
    return {
        "schema": KEY_SCHEMA,
        "libc": image_digest(libc_image()),
        "workloads": {
            f"{key}/{workload.name}": workload_key(workload, options)
            for key, workload in registry.entries(
                registry.REGISTRY_ORDER + ("adversarial",)
            )
        },
        "runs": [
            _run_key(guest, assemble(guest["path"], guest["source"]))
            for guest in INLINE
        ],
        "submissions": [
            submission_key(_submission(guest), EngineCache())
            for guest in INLINE
        ],
        "variants": {
            planned.ref.name: workload_key(planned.ref.resolve(), options)
            for planned in plan_sweep(per_class=1, seed=VARIANT_SEED)
        },
    }


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_every_key_equals_its_golden_value():
    golden = _golden()
    current = current_keys()
    assert current["schema"] == golden["schema"]
    assert current["libc"] == golden["libc"]
    assert set(current["workloads"]) == set(golden["workloads"])
    moved = sorted(
        name for name, key in current["workloads"].items()
        if golden["workloads"][name] != key
    )
    assert moved == []
    assert current["runs"] == golden["runs"]
    assert current["submissions"] == golden["submissions"]
    assert set(current["variants"]) == set(golden["variants"])
    moved = sorted(
        name for name, key in current["variants"].items()
        if golden["variants"][name] != key
    )
    assert moved == []


def test_read_only_mapping_encodes_as_a_mapping():
    image = assemble(INLINE[0]["path"], INLINE[0]["source"])
    assert canon_bytes(image.data) == canon_bytes(dict(image.data))
    assert canon_bytes(image.symbols).startswith(b"d")


def test_a_disk_entry_of_the_golden_tree_still_hits(tmp_path):
    disk = tmp_path / "vc"
    shutil.copytree(GOLDEN_DISK, disk)
    guest = INLINE[0]
    session = Session(cache=VerdictCache(disk_dir=str(disk)))
    report = session.run(
        guest["source"],
        path=guest["path"],
        argv=guest["argv"],
        stdin=guest["stdin"],
        cache_env=CacheEnv.from_mappings(guest["files"], guest["peers"]),
    )
    assert session.cache.stats.disk_hits == 1
    assert session.cache.stats.misses == 0
    fresh = Session().run(
        guest["source"],
        path=guest["path"],
        argv=guest["argv"],
        cache_env=CacheEnv.from_mappings(guest["files"], guest["peers"]),
    )
    assert repr(report) == repr(fresh)


def _write_golden_disk():
    """Write ``golden_disk/`` from this tree's run of the first guest."""
    guest = INLINE[0]
    shutil.rmtree(GOLDEN_DISK, ignore_errors=True)
    session = Session(cache=VerdictCache(disk_dir=GOLDEN_DISK))
    session.run(
        guest["source"],
        path=guest["path"],
        argv=guest["argv"],
        stdin=guest["stdin"],
        cache_env=CacheEnv.from_mappings(guest["files"], guest["peers"]),
    )
    assert session.cache.stats.stores == 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--disk"]:
        _write_golden_disk()
    else:
        json.dump(current_keys(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
