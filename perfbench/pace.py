"""Host-speed reference: steady timings on a host whose speed wanders.

A virtual machine on a shared host does not get a steady CPU: on the
2-vCPU VM this benchmark was written on, a plain Python loop ran between
6.3 and 11.5 ms per 50 000 iterations within four minutes, in phases of
a few seconds to a minute, with no steal time.  The median wall time of
25 s windows of that loop spread 20% (IQR / median) from window to
window, 15% for 55 s windows, so no run length fits a 25% bound on wall
time alone.

So every timed unit of work is bracketed by a fixed pure-Python
reference loop (:func:`reference`), and its seconds are scaled by
``REFERENCE_S / (mean of the two bracketing reference times)``: the time
the work would have taken at the speed the reference loop had on that
VM.  A slower program still reads slower; a slower host does not.  The
raw wall times are kept in the report file beside the scaled ones.

Work that keeps two CPUs busy (fleet workers, serve workers) is
referenced on two CPUs: a helper process runs the loop at the same time
as the benchmark process, and the reference time is the mean of the
two.  One vCPU can slow while the other does not, and a one-CPU
reference then misjudges two-CPU work.

    python3 perfbench/pace.py --helper

is that helper: it runs the loop once per line read from standard input
and prints the seconds it took.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List, Set

#: Iterations of one reference loop.
REFERENCE_ITERATIONS = 400_000
#: About the median seconds of one reference loop on the 2-vCPU VM
#: (Python 3.11.7) the benchmark was written on (0.068-0.132 s, median
#: 0.103 s over 60 loops): scaled times read in that VM's seconds.
REFERENCE_S = 0.1


def reference() -> float:
    """Seconds one run of the reference loop takes right now."""
    started = time.perf_counter()
    table: dict = {}
    kept = []
    for i in range(REFERENCE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
        if not i & 7:
            kept.append((key, i))
    return time.perf_counter() - started


class Pacer:
    """Scale factors for consecutive stretches of work on ``cpus`` CPUs.

    :meth:`begin` times the reference before the first stretch; each
    :meth:`factor` call times it again and scales the stretch since the
    previous timing by the mean of the two reference times around it.
    A context manager: leaving it stops the helper processes.
    """

    def __init__(self, cpus: int = 1) -> None:
        self._helpers: List[subprocess.Popen] = [
            subprocess.Popen(
                [sys.executable, __file__, "--helper"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(cpus - 1)
        ]
        self.last = 0.0

    @property
    def pids(self) -> Set[int]:
        return {helper.pid for helper in self._helpers}

    def _reference(self) -> float:
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [reference()]
        for helper in self._helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError("pace helper exited")
            times.append(float(line))
        return statistics.mean(times)

    def begin(self) -> None:
        self.last = self._reference()

    def factor(self) -> float:
        now = self._reference()
        scale = REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        return scale

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def __enter__(self) -> "Pacer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _helper() -> int:
    for _ in sys.stdin:
        print(reference(), flush=True)
    return 0


if __name__ == "__main__" and sys.argv[1:] == ["--helper"]:
    sys.exit(_helper())
