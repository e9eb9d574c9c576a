"""EngineCache: warm execution-engine state reused across runs.

One :class:`~repro.core.hth.HTH` instance models one machine and lives
for one run, so by construction every run used to retranslate every
basic block and re-intern every tag set from scratch.  Sweeps (the §9
table, the 62-workload differential suite, chaos seed trials, fleet
workers) run the *same images* over and over — an ideal reuse target,
because the block translation cache and the tag-set interner are pure
performance substrates whose contents never leak into observable run
output (proven by ``tests/harrier/test_blockcache_differential.py``).

An :class:`EngineCache` owns that reusable state:

* a :class:`~repro.harrier.blockcache.BlockCacheStore` keyed by exact
  code layout, so a second run of the same image starts with every
  block already translated — and, through its per-library plan tables
  and relocation memo, a run of a *new* image starts with libc already
  relocated and translated;
* a shared :class:`~repro.taint.tags.TagSetInterner`, so hash-consed
  tag sets and the union memo stay warm across the sweep;
* an assemble memo handing out one image per ``(path, source)``.

The identity rule: an :class:`~repro.isa.image.Image` is immutable
(read-only ``data`` and ``symbols``) and hashes by identity, so the
image object *is* the key of the program.  The store, the loader's
relocation memo and the verdict-cache digest key on images, and the
memo here hands every run the same instance, so they hit.  Every
:class:`~repro.core.hth.HTH` runs on an EngineCache (a lone ``HTH()``
builds a fresh one).

Sharing an EngineCache is what "each fleet worker owns a warm
BlockCache/TagSetInterner reused across its tasks" means concretely:
:class:`repro.api.Session` creates one and threads it into every HTH it
builds.  An EngineCache must only ever be used from one process/thread
at a time (fleet workers each build their own).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.harrier.blockcache import BlockCacheStore
from repro.isa.assembler import SourceStmt, assemble
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
        #: (path, source) -> assembled image.  ``max_images`` bounds
        #: the memo LRU-style; front-ends that assemble *untrusted,
        #: ever-varying* sources without executing them (the serve
        #: daemon's cache-key path) must set it, or a client can grow
        #: daemon memory without bound by varying one byte per
        #: submission.  Execution sessions keep the default ``None``:
        #: eviction would re-assemble and hand out a new image,
        #: orphaning that layout's entry in ``block_caches``.
        self.max_images = max_images
        self._images: "OrderedDict[Tuple[str, str], Image]" = OrderedDict()

    def image(
        self,
        path: str,
        source: str,
        statements: Optional[Sequence[SourceStmt]] = None,
    ) -> Image:
        """Assemble ``source`` as ``path``, memoized per session: every
        call returns the same (immutable) image.  ``statements``, when
        given, are the parsed rows of ``source`` (line numbers of that
        text); a miss assembles them instead of parsing the text."""
        key = (path, source)
        image = self._images.get(key)
        if image is None:
            image = self._images[key] = assemble(
                path, source if statements is None else statements
            )
        if self.max_images is not None:
            self._images.move_to_end(key)
            while len(self._images) > self.max_images:
                self._images.popitem(last=False)
        return image

    def stats(self) -> Dict[str, object]:
        """Aggregate warm-cache statistics (sweep diagnostics),
        library plan tables (``library_entries``/``library_plans``)
        included."""
        stats = self.block_caches.stats()
        stats["images"] = len(self._images)
        return stats
