"""Library plan tables: shared objects translate once per warm store.

Every variant of a sweep is a new main image, so every run is a new
code layout — but libc is the same relocated code at the same base in
each.  A warm :class:`~repro.harrier.blockcache.BlockCacheStore` keeps
one plan table per library mapping and seeds every new layout's cache
from it.  These tests hold that sharing to two lines: it must be
invisible (a warm session's reports are bit-identical to cold ones, on
the inlined-monitor path and on the ``record_path()`` oracle), and it
must actually share (no libc block is translated twice in one warm
session).
"""

import contextlib
import json
from unittest import mock

import pytest

from repro.api import Session
from repro.harrier import blockcache
from repro.harrier.blockcache import BlockCache, BlockCacheStore
from repro.isa import FlatMemory, Image, Imm, Instruction, Opcode, Reg
from repro.isa.memory import LIBRARY_BASE
from repro.programs.libc import libc_image
from repro.programs.mutate import MUTATION_CLASSES, variants
from tests.oracles import record_path

#: Parents with different libc footprints (plain, forking, file + socket).
PARENTS = ("Hardcode", "tree forker", "grabem")
SEED = 5


def _variants():
    return [
        variants(parent, klass, SEED)[0]
        for parent in PARENTS
        for klass in MUTATION_CLASSES
    ]


def _libc_end():
    return LIBRARY_BASE + libc_image().text_size


@contextlib.contextmanager
def _translations():
    """Record the entry pc of every block translation."""
    pcs = []
    real = blockcache.translate_block

    def spy(memory, pc, leaders):
        pcs.append(pc)
        return real(memory, pc, leaders)

    with mock.patch.object(blockcache, "translate_block", spy):
        yield pcs


def _dump(report):
    return json.dumps(report.to_dict(), sort_keys=True, default=str)


@pytest.mark.parametrize(
    "oracle", [contextlib.nullcontext, record_path],
    ids=["inlined", "record-path"],
)
def test_warm_library_plans_are_invisible(oracle):
    workloads = _variants()
    with oracle():
        warm = Session()
        warm_reports = [_dump(warm.run_workload(w)) for w in workloads]
        for workload, report in zip(workloads, warm_reports):
            assert _dump(Session().run_workload(workload)) == report, (
                f"{workload.name} diverges on a warm session"
            )
    assert warm.engine.stats()["library_plans"] > 0


def test_each_libc_block_translates_once_per_session():
    start, end = LIBRARY_BASE, _libc_end()
    session = Session()
    per_variant = []
    with _translations() as pcs:
        for workload in _variants():
            del pcs[:]
            session.run_workload(workload)
            per_variant.append([pc for pc in pcs if start <= pc < end])
    libc = [pc for pcs in per_variant for pc in pcs]
    assert libc, "the variants never entered libc"
    assert len(libc) == len(set(libc)), "a libc block was retranslated"
    # Variants that only rename paths reach no libc block their parent's
    # first variant did not: from the second variant on they translate
    # none.
    for i, klass in enumerate(MUTATION_CLASSES * len(PARENTS)):
        if klass == "rename-paths":
            assert per_variant[i] == []
    # A cold session translates libc again.
    with _translations() as pcs:
        Session().run_workload(_variants()[1])
    assert any(start <= pc < end for pc in pcs)


def test_engine_stats_count_library_tables():
    session = Session()
    session.run_workload(_variants()[0])
    stats = session.engine.stats()
    # libc and the startup shim are the non-app images of every layout.
    assert stats["library_entries"] == 2
    assert stats["library_plans"] >= 1
    assert session.engine.block_caches.library_stats() == {
        "library_entries": stats["library_entries"],
        "library_plans": stats["library_plans"],
    }


class TestBlockCacheLibraries:
    PROG = [
        Instruction(Opcode.MOV, Reg("eax"), Imm(1)),
        Instruction(Opcode.RET),
        Instruction(Opcode.MOV, Reg("eax"), Imm(2)),
        Instruction(Opcode.RET),
    ]

    def _memory(self):
        memory = FlatMemory()
        memory.map_code(0, self.PROG)
        return memory

    def test_seeds_and_writes_back_in_range_only(self):
        shared = {}
        first = BlockCache(libraries=[(2, 4, shared)])
        memory = self._memory()
        first.lookup(memory, 0)  # outside the library range
        plan = first.lookup(memory, 2)
        assert shared == {2: plan}
        second = BlockCache(libraries=[(2, 4, shared)])
        assert second.lookup(memory, 2) is plan
        assert (second.hits, second.misses) == (1, 0)

    def test_a_block_shared_since_seeding_replaces_the_translation(self):
        """Two layouts seeded before either ran the block: the second to
        translate it still runs the first one's plan, so every layout
        holds one plan per library block (a loop trace's members)."""
        shared = {}
        first = BlockCache(libraries=[(2, 4, shared)])
        second = BlockCache(libraries=[(2, 4, shared)])
        memory = self._memory()
        plan = first.lookup(memory, 2)
        assert second.lookup(memory, 2) is plan
        assert second.plans[2] is plan and shared == {2: plan}
        assert (second.misses, second.translated_instructions) == (1, 2)

    def test_block_running_past_the_range_is_not_shared(self):
        shared = {}
        cache = BlockCache(libraries=[(0, 1, shared)])
        cache.lookup(self._memory(), 0)  # the block spans pcs 0-1
        assert shared == {}

    def test_flush_keeps_library_plans(self):
        shared = {}
        cache = BlockCache(libraries=[(0, 4, shared)])
        memory = self._memory()
        plan = cache.lookup(memory, 0)
        cache.flush()
        assert cache.lookup(memory, 0) is plan
        assert cache.flushes == 1

    def test_store_table_per_library_layout(self):
        store = BlockCacheStore()
        image = Image("/lib/x.so", tuple(self.PROG))
        twin = Image("/lib/x.so", tuple(self.PROG))
        table = store.library_plans((image, 0x100, ()))
        assert store.library_plans((image, 0x100, ())) is table
        assert store.library_plans((twin, 0x100, ())) is not table
        assert store.library_plans((image, 0x200, ())) is not table
        table[0] = object()
        assert store.library_stats() == {
            "library_entries": 3, "library_plans": 1,
        }
