"""repro.cache — content-addressed verdict cache.

The fastest run is the one you never execute: hash the assembled image,
the frozen options, and the guest-visible environment; if the exact run
has been seen before, hand back the remembered schema-v2
:class:`RunReport` bit-identically without executing.  See
``docs/scaling.md`` for the key anatomy and the bypass rules.
"""

from repro.cache.digest import (
    CacheEnv,
    DigestError,
    KEY_SCHEMA,
    canon_bytes,
    content_digest,
    environment_digest,
    image_digest,
    options_fingerprint,
    run_key,
    submission_key,
    workload_key,
)
from repro.cache.store import (
    BYPASS_ANALYZER,
    BYPASS_DISABLED,
    BYPASS_FAULTS,
    BYPASS_OPAQUE_SETUP,
    BYPASS_TELEMETRY,
    CacheStats,
    DiskStore,
    MemoryLRU,
    VerdictCache,
    bypass_reason,
    cacheable_report,
    cacheable_report_dict,
    merge_cache_stats,
)

__all__ = [
    "BYPASS_ANALYZER",
    "BYPASS_DISABLED",
    "BYPASS_FAULTS",
    "BYPASS_OPAQUE_SETUP",
    "BYPASS_TELEMETRY",
    "CacheEnv",
    "CacheStats",
    "DigestError",
    "DiskStore",
    "KEY_SCHEMA",
    "MemoryLRU",
    "VerdictCache",
    "bypass_reason",
    "cacheable_report",
    "cacheable_report_dict",
    "canon_bytes",
    "content_digest",
    "environment_digest",
    "image_digest",
    "merge_cache_stats",
    "options_fingerprint",
    "run_key",
    "submission_key",
    "workload_key",
]
