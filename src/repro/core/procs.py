"""Worker-process plumbing shared by the fleet engine and the serve
supervisor: the multiprocessing start method, one worker process with
its own inbox and result pipe, and deterministic retry backoff.  See
docs/scaling.md, "One worker core, two policies"."""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import zlib
from typing import Callable, Iterable, Optional


def mp_context():
    """Fork where available (cheap, inherits the imported stack), spawn
    otherwise; both worker entrypoints are importable so both work."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class WorkerProcess:
    """A started ``target(wid, inbox, results, *args)`` child, with an
    inbox no other worker shares and a result pipe only it writes.

    ``put`` never blocks: an ``mp.Queue``'s feeder thread does the
    writing.
    """

    def __init__(self, ctx, target: Callable, wid: int, *args) -> None:
        self.inbox = ctx.Queue()
        # Items a dead child left unread must not hold up our exit.
        self.inbox.cancel_join_thread()
        # Made just before the fork, our write end closed just after:
        # no other child inherits it, so a death reads as end-of-file.
        self.results, writer = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=target, args=(wid, self.inbox, writer) + args,
            daemon=True,
        )
        self.proc.start()
        writer.close()

    def put(self, item: object) -> None:
        self.inbox.put(item)

    def is_alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        self.proc.kill()

    def drain(self, handle: Callable[[object], None]) -> Optional[int]:
        """Hand each message in the pipe to ``handle``; return the exit
        code read *before* reading (None while the child runs), so once
        it is set everything the child sent has been handled.  A message
        cut off by the death reads as end-of-file and counts as unsent."""
        exitcode = self.proc.exitcode
        while True:
            try:
                if not self.results.poll():
                    return exitcode
                msg = self.results.recv()
            except (EOFError, OSError):
                return exitcode
            handle(msg)

    def close(self, timeout: float = 5.0) -> None:
        """Give the child ``timeout`` to exit, terminate it after that,
        and close both channels."""
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5.0)
        self.results.close()
        self.inbox.close()


def wait(workers: Iterable[WorkerProcess], timeout: float) -> None:
    """Block until a worker sent a message or exited, or ``timeout``."""
    mp_connection.wait(
        [c for w in workers for c in (w.results, w.proc.sentinel)],
        timeout=timeout,
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
