"""Console device: scripted stdin, captured stdout/stderr.

Tests and benchmarks provide user input up front with
:meth:`Console.provide_input` and assert on :meth:`Console.output_text`.
Reads from an exhausted stdin return EOF rather than blocking, so
non-interactive programs terminate cleanly.
"""

from __future__ import annotations

from typing import List, Tuple


class Console:
    def __init__(self) -> None:
        self._input = bytearray()
        #: (pid, data) in write order — lets tests attribute output.
        self.outputs: List[Tuple[int, bytes]] = []

    def provide_input(self, data) -> None:
        """Queue user keystrokes (str or bytes)."""
        if isinstance(data, str):
            data = data.encode()
        self._input.extend(data)

    def read(self, count: int) -> bytes:
        """Consume up to ``count`` input bytes (empty result == EOF)."""
        take = self._input[:count]
        del self._input[:count]
        return bytes(take)

    def read_line(self, max_count: int) -> bytes:
        """Consume up to one line (including the newline), canonical-tty
        style, limited to ``max_count`` bytes."""
        newline = self._input.find(b"\n")
        if newline == -1:
            end = min(len(self._input), max_count)
        else:
            end = min(newline + 1, max_count)
        take = self._input[:end]
        del self._input[:end]
        return bytes(take)

    def write(self, pid: int, data: bytes) -> int:
        self.outputs.append((pid, bytes(data)))
        return len(data)

    def output_bytes(self, pid: int = None) -> bytes:
        chunks = [
            data for out_pid, data in self.outputs
            if pid is None or out_pid == pid
        ]
        return b"".join(chunks)

    def output_text(self, pid: int = None) -> str:
        return self.output_bytes(pid).decode(errors="replace")
