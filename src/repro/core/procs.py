"""Worker-process plumbing shared by the fleet engine and the serve
supervisor: the multiprocessing start method and deterministic retry
backoff."""

from __future__ import annotations

import multiprocessing
import zlib
from typing import Optional


def mp_context(name: Optional[str] = None):
    """Fork where available (cheap, inherits the imported stack), spawn
    otherwise; both worker entrypoints are importable so both work."""
    if name is not None:
        return multiprocessing.get_context(name)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def retry_delay(base: float, attempt: int, key: str) -> float:
    """The planned sleep before retrying ``attempt`` (1-based).

    Exponential in the attempt number, with a jitter fraction in [0, 1)
    hashed from ``crc32(key:attempt)`` — a fleet task keys it by
    ``f"{seed}:{index}"``, a serve job by its id — so concurrent retries
    desynchronize without consulting a random source, and two runs of
    the same chaos schedule sleep identically.
    """
    if base <= 0:
        return 0.0
    frac = zlib.crc32(f"{key}:{attempt}".encode()) / 2.0 ** 32
    return base * (2.0 ** max(attempt - 1, 0)) * (1.0 + frac)
