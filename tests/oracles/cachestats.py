"""Block-cache counters summed over every translation cache a kernel
holds (one per loaded image), for tests that count lookups."""

from __future__ import annotations

from typing import Dict


def block_cache_stats(kernel) -> Dict[str, int]:
    """``hits``, ``misses`` and ``translated_instructions`` over every
    live cache of ``kernel``."""
    totals = {"hits": 0, "misses": 0, "translated_instructions": 0}
    for _image, cache in kernel._block_caches.values():
        stats = cache.stats()
        for key in totals:
            totals[key] += stats[key]
    return totals
