"""Multi-source taint model (paper section 5.1).

Public surface:

* :class:`DataSource` — the resource-type vocabulary.
* :class:`Tag` — one provenance record (source type + resource name).
* :class:`TagSet` — immutable set of tags; union is the dataflow operation.
* :class:`ShadowRegisters` / :class:`ShadowMemory` — per-location tag stores.
"""

from repro.taint.shadow import (
    PAGE_SIZE,
    ShadowMemory,
    ShadowRegisters,
)
from repro.taint.tags import (
    EMPTY,
    DataSource,
    Tag,
    TagSet,
    TagSetInterner,
)

__all__ = [
    "DataSource",
    "Tag",
    "TagSet",
    "TagSetInterner",
    "EMPTY",
    "ShadowRegisters",
    "ShadowMemory",
    "PAGE_SIZE",
]
