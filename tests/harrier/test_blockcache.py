"""BlockCache behavior: hit/miss accounting, sampled counters, capacity
flush, and the kernel's cache lifecycle (spawn/fork/execve)."""

from repro.harrier.blockcache import BlockCache, BlockCacheStore
from repro.isa import (
    FlatMemory,
    Imm,
    Instruction,
    Opcode,
    Reg,
    assemble,
)
from repro.isa.memory import MemoryFault
from repro.kernel import Kernel
from repro.programs.libc import libc_image
from repro.telemetry import MetricsRegistry, Sampler
from tests.oracles import reference_interpreter
from tests.oracles.cachestats import block_cache_stats

import pytest


def make_memory(instructions, base=0):
    mem = FlatMemory()
    mem.map_code(base, instructions)
    return mem


PROG = [
    Instruction(Opcode.MOV, Reg("eax"), Imm(1)),
    Instruction(Opcode.JMP, Imm(0)),
]


class TestCacheAccounting:
    def test_miss_then_hit(self):
        cache = BlockCache()
        mem = make_memory(PROG)
        p1 = cache.lookup(mem, 0)
        p2 = cache.lookup(mem, 0)
        assert p1 is p2
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.translated_instructions == p1.length
        assert len(cache) == 1
        assert cache.hit_rate() == 0.5

    def test_hit_rate_none_before_any_lookup(self):
        assert BlockCache().hit_rate() is None

    def test_unmapped_lookup_raises_and_caches_nothing(self):
        cache = BlockCache()
        mem = make_memory(PROG)
        with pytest.raises(MemoryFault, match="execute of unmapped"):
            cache.lookup(mem, 0x777)
        assert len(cache) == 0

    def test_capacity_flush(self):
        cache = BlockCache(max_blocks=2)
        mem = make_memory([Instruction(Opcode.NOP)] * 6,)
        # leaders force single-instruction blocks so each pc is a key
        cache.leaders = frozenset(range(7))
        for pc in range(3):
            cache.lookup(mem, pc)
        assert cache.flushes == 1
        assert len(cache) == 1  # flushed at the third insert

    def test_metrics_counters(self):
        kernel = make_kernel()
        kernel.spawn(assemble("/bin/p", "main:\n  mov eax, 0\n  ret"))
        kernel.run()
        registry = MetricsRegistry()
        Sampler(registry).sample([kernel])
        stats = kernel.block_cache_store.stats()
        assert registry.total("blockcache_hits_total") == stats["hits"]
        assert registry.total("blockcache_misses_total") == stats["misses"] > 0
        assert registry.total(
            "blockcache_translated_instructions_total"
        ) == stats["translated_instructions"] > 0


def make_kernel(**kwargs):
    return Kernel(BlockCacheStore(), libraries=[libc_image()], **kwargs)


FORK_SRC = r"""
main:
    call fork
    mov eax, 0
    ret
"""

EXEC_SRC = r"""
main:
    mov ebx, tgt
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 0
    ret
.data
tgt: .asciz "/bin/ls"
"""


class TestKernelLifecycle:
    def test_spawn_assigns_shared_cache_per_image(self):
        k = make_kernel()
        image = assemble("/bin/p", "main:\n  mov eax, 0\n  ret")
        k.register_binary(image)
        a = k.spawn("/bin/p")
        b = k.spawn("/bin/p")
        assert a.block_cache is not None
        assert a.block_cache is b.block_cache

    def test_reference_interpreter_never_consults_the_cache(self):
        k = make_kernel()
        proc = k.spawn(assemble("/bin/p", "main:\n  mov eax, 0\n  ret"))
        with reference_interpreter():
            result = k.run()
        assert result.completed
        assert proc.exit_code == 0
        stats = block_cache_stats(k)
        assert stats["hits"] == stats["misses"] == 0

    def test_fork_shares_parent_cache(self):
        k = make_kernel()
        parent = k.spawn(assemble("/bin/p", FORK_SRC))
        k.run()
        procs = list(k.procs.values())
        assert len(procs) == 2
        assert procs[0].block_cache is procs[1].block_cache

    def test_execve_swaps_cache_and_counts_flush(self):
        k = make_kernel()
        k.register_binary(
            assemble("/bin/ls", "main:\n  mov eax, 0\n  ret")
        )
        proc = k.spawn(assemble("/bin/p", EXEC_SRC))
        before = proc.block_cache
        assert k.block_cache_flushes == 0
        result = k.run()
        assert result.completed
        assert proc.exit_code == 0
        assert k.block_cache_flushes == 1
        assert proc.block_cache is not before

    def test_execve_flush_metric(self):
        k = make_kernel()
        k.register_binary(
            assemble("/bin/ls", "main:\n  mov eax, 0\n  ret")
        )
        k.spawn(assemble("/bin/p", EXEC_SRC))
        k.run()
        registry = MetricsRegistry()
        Sampler(registry).sample([k])
        assert registry.total("blockcache_flushes_total") == 1

    def test_stats_aggregate(self):
        k = make_kernel()
        proc = k.spawn(assemble("/bin/p", "main:\n  mov eax, 0\n  ret"))
        k.run()
        stats = block_cache_stats(k)
        assert stats["misses"] > 0
        assert stats["translated_instructions"] > 0
        assert proc.exit_code == 0

    def test_cached_run_matches_interp_run(self):
        # same guest, both engines: identical exit, console, clock
        src = r"""
main:
    mov edi, 0
loop:
    cmp edi, 5
    jge done
    mov ebx, edi
    call print_num
    add edi, 1
    jmp loop
done:
    mov eax, 0
    ret
"""
        results = {}
        for use_cache in (True, False):
            k = make_kernel()
            proc = k.spawn(assemble("/bin/p", src))
            if use_cache:
                result = k.run()
            else:
                with reference_interpreter():
                    result = k.run()
            results[use_cache] = (
                proc.exit_code,
                result.instructions,
                result.ticks,
                k.console.output_text(),
            )
        assert results[True] == results[False]
