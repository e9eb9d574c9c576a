"""EngineCache: warm execution-engine state reused across runs.

One :class:`~repro.core.hth.HTH` instance models one machine and lives
for one run, so by construction every run used to retranslate every
basic block and re-intern every tag set from scratch.  Sweeps (the §9
table, the 62-workload differential suite, chaos seed trials, fleet
shards) run the *same images* over and over — an ideal reuse target,
because the block translation cache and the tag-set interner are pure
performance substrates whose contents never leak into observable run
output (proven by ``tests/harrier/test_blockcache_differential.py``).

An :class:`EngineCache` owns that reusable state:

* a :class:`~repro.harrier.blockcache.BlockCacheStore` keyed by exact
  code-layout identity, so a second run of the same image starts with
  every block already translated — and, through its per-library plan
  tables and relocation memo, a run of a *new* image starts with libc
  already relocated and translated;
* a shared :class:`~repro.taint.tags.TagSetInterner`, so hash-consed
  tag sets and the union memo stay warm across the sweep;
* an assemble memo handing out images that share their (immutable)
  text tuple while copying the mutable ``data``/``symbols`` containers
  — the same defensive-copy pattern as
  :func:`repro.core.hth.stub_binary`, and the thing that makes the
  layout keys of the block-cache store stable across runs.

Sharing an EngineCache is what "each fleet worker owns a warm
BlockCache/TagSetInterner reused across its shard" means concretely:
:class:`repro.api.Session` creates one and threads it into every HTH it
builds.  An EngineCache must only ever be used from one process/thread
at a time (fleet workers each build their own).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.harrier.blockcache import BlockCacheStore
from repro.isa.assembler import assemble
from repro.isa.image import Image
from repro.taint.tags import TagSetInterner


class EngineCache:
    """Warm, observably-transparent engine state shared across runs."""

    def __init__(self, max_images: Optional[int] = None) -> None:
        #: Layout-keyed store of translated-block caches (see
        #: :class:`BlockCacheStore` for the key discipline).
        self.block_caches = BlockCacheStore()
        #: Shared hash-consing table + union memo for taint tag sets.
        self.interner = TagSetInterner()
        #: (path, source) -> assembled template image.  ``max_images``
        #: bounds the memo LRU-style; front-ends that assemble
        #: *untrusted, ever-varying* sources without executing them (the
        #: serve daemon's key/triage path) must set it, or a client can
        #: grow daemon memory without bound by varying one byte per
        #: submission.  Execution sessions keep the default ``None``:
        #: eviction would re-assemble and hand out a new text tuple,
        #: orphaning that layout's entry in ``block_caches``.
        self.max_images = max_images
        self._images: "OrderedDict[Tuple[str, str], Image]" = OrderedDict()

    def image(self, path: str, source: str) -> Image:
        """Assemble ``source`` as ``path``, memoized per session.

        Every call returns an image with its own mutable containers so
        one machine's loader state can never leak into another; the
        text tuple (frozen instructions) is shared, which both avoids
        re-assembly and keeps ``id(image.text)`` — the block-cache
        store's layout key — stable across the session's runs.
        """
        key = (path, source)
        template = self._images.get(key)
        if template is None:
            template = self._images[key] = assemble(path, source)
        if self.max_images is not None:
            self._images.move_to_end(key)
            while len(self._images) > self.max_images:
                self._images.popitem(last=False)
        return replace(
            template,
            data=dict(template.data),
            symbols=dict(template.symbols),
        )

    def stats(self) -> Dict[str, object]:
        """Aggregate warm-cache statistics (sweep diagnostics),
        library plan tables (``library_entries``/``library_plans``)
        included."""
        stats = self.block_caches.stats()
        stats["images"] = len(self._images)
        return stats
