"""Block-cache counters summed over every translation cache a kernel
holds (one per code layout), for tests that count lookups."""

from __future__ import annotations

from typing import Dict, List


def kernel_caches(kernel) -> List[object]:
    """Every translation cache in ``kernel``'s store: the kernel's own
    caches when the machine has a store of its own (a lone ``HTH()``)."""
    return list(kernel.block_cache_store._entries.values())


def block_cache_stats(kernel) -> Dict[str, int]:
    """``hits``, ``misses`` and ``translated_instructions`` over every
    cache of ``kernel``."""
    totals = {"hits": 0, "misses": 0, "translated_instructions": 0}
    for cache in kernel_caches(kernel):
        stats = cache.stats()
        for key in totals:
            totals[key] += stats[key]
    return totals
