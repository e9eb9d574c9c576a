"""stide-style syscall-sequence anomaly detection (paper section 3.2).

The paper positions HTH against host-based anomaly detectors that learn
*normal* syscall sequences (Kosoresow & Hofmeyr [15]; Forrest's stide
family; the gray-box taxonomy of Gao et al. [5]).  This baseline
implements the classic scheme — a database of length-``k`` sliding
windows over syscall-number traces gathered from normal runs; at
detection time the fraction of unseen windows is the anomaly score —
so the benchmark harness can contrast it with HTH's semantic policy on
the same workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.kernel.hooks import CompositeHooks, KernelHooks
from repro.kernel.syscalls import syscall_name
from repro.programs.base import Workload


class SyscallTraceRecorder(KernelHooks):
    """Records the per-process syscall name sequence (Harrier-independent:
    this is the black-box view a stide monitor actually has)."""

    def __init__(self) -> None:
        self.traces: Dict[int, List[str]] = {}

    def on_syscall_pre(self, proc, sysno, args, info) -> bool:
        self.traces.setdefault(proc.pid, []).append(syscall_name(sysno))
        return True

    def merged_trace(self) -> List[str]:
        """All processes' traces concatenated in pid order."""
        out: List[str] = []
        for pid in sorted(self.traces):
            out.extend(self.traces[pid])
        return out


def record_trace(workload: Workload) -> List[str]:
    """Run a workload (unmonitored by Secpert) and return its trace."""
    hth = workload.build_machine()
    recorder = SyscallTraceRecorder()
    hth.kernel.hooks = CompositeHooks([hth.harrier, recorder])
    hth.run(
        workload.image(),
        argv=workload.argv or [workload.program_path],
        env=workload.env,
        stdin=workload.stdin,
        max_ticks=workload.max_ticks,
    )
    return recorder.merged_trace()


@dataclass
class StideDetector:
    """Sequence time-delay embedding over syscall names."""

    window: int = 6
    threshold: float = 0.05
    _database: Set[Tuple[str, ...]] = field(default_factory=set)

    def _windows(self, trace: Sequence[str]) -> Iterable[Tuple[str, ...]]:
        if len(trace) < self.window:
            if trace:
                yield tuple(trace)
            return
        for i in range(len(trace) - self.window + 1):
            yield tuple(trace[i:i + self.window])

    def train(self, trace: Sequence[str]) -> None:
        self._database.update(self._windows(trace))

    def train_all(self, traces: Iterable[Sequence[str]]) -> None:
        for trace in traces:
            self.train(trace)

    @property
    def database_size(self) -> int:
        return len(self._database)

    def score(self, trace: Sequence[str]) -> float:
        """Fraction of windows never seen during training (0 = normal)."""
        windows = list(self._windows(trace))
        if not windows:
            return 0.0
        unseen = sum(1 for w in windows if w not in self._database)
        return unseen / len(windows)

    def is_anomalous(self, trace: Sequence[str]) -> bool:
        return self.score(trace) > self.threshold


@dataclass
class StideEvaluation:
    """Detection/false-positive comparison on a workload suite."""

    name: str
    score: float
    flagged: bool
    should_flag: bool

    @property
    def correct(self) -> bool:
        return self.flagged == self.should_flag


def evaluate_stide(
    train_workloads: Sequence[Workload],
    test_workloads: Sequence[Tuple[Workload, bool]],
    window: int = 6,
    threshold: float = 0.05,
) -> List[StideEvaluation]:
    """Train on normal runs, test on (workload, is_malicious) pairs."""
    detector = StideDetector(window=window, threshold=threshold)
    detector.train_all(record_trace(w) for w in train_workloads)
    results = []
    for workload, should_flag in test_workloads:
        trace = record_trace(workload)
        score = detector.score(trace)
        results.append(
            StideEvaluation(
                name=workload.name,
                score=score,
                flagged=score > threshold,
                should_flag=should_flag,
            )
        )
    return results
