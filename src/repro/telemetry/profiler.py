"""Live overhead profiler: where does the monitor's wall time go?

The paper's §8/§9 overhead study compares native execution against
monitoring with basic-block frequency counting (+bbfreq), full dataflow
tracking (+dataflow), and the expert-system analysis.  The
:class:`StageProfiler` reproduces that breakdown from a *single* run:
Harrier attributes the wall time of each per-block component and
each analysis dispatch to a stage, the kernel reports total run wall
time, and whatever is left is the ``native`` stage (guest execution plus
kernel bookkeeping — what a run with monitoring off would cost).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

STAGE_NATIVE = "native"
STAGE_BBFREQ = "bbfreq"
STAGE_DATAFLOW = "dataflow"
STAGE_ANALYSIS = "analysis"

#: Stage order mirrors the paper's cumulative configurations:
#: native → +bbfreq → +dataflow → full (analysis on top).
STAGES: Tuple[str, ...] = (
    STAGE_NATIVE, STAGE_BBFREQ, STAGE_DATAFLOW, STAGE_ANALYSIS
)


class StageProfiler:
    """Accumulates per-stage wall seconds for one or more runs."""

    def __init__(self) -> None:
        self._stage_seconds: Dict[str, float] = {
            STAGE_BBFREQ: 0.0,
            STAGE_DATAFLOW: 0.0,
            STAGE_ANALYSIS: 0.0,
        }
        self._run_wall = 0.0
        self.runs = 0

    # -- recording ---------------------------------------------------------
    def add(self, stage: str, seconds: float) -> None:
        self._stage_seconds[stage] = (
            self._stage_seconds.get(stage, 0.0) + seconds
        )

    def add_run(self, wall_seconds: float) -> None:
        """Record the total wall time of one kernel run."""
        self._run_wall += wall_seconds
        self.runs += 1

    # -- reading -----------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return self._run_wall

    def breakdown(self) -> Dict[str, float]:
        """Stage → wall seconds; ``native`` is the unattributed remainder."""
        monitored = sum(self._stage_seconds.values())
        native = max(self._run_wall - monitored, 0.0)
        out = {STAGE_NATIVE: native}
        out.update(self._stage_seconds)
        return out

    def shares(self) -> Dict[str, float]:
        """Stage → fraction of total run wall time."""
        total = self._run_wall or sum(self._stage_seconds.values()) or 1.0
        return {
            stage: seconds / total
            for stage, seconds in self.breakdown().items()
        }

    def slowdowns(self) -> Dict[str, float]:
        """Cumulative slowdown estimates vs native, §9-style.

        ``native``→1.0, ``bbfreq``→(native+bbfreq)/native, ``dataflow``→
        (native+bbfreq+dataflow)/native, ``analysis``→total/native.
        """
        b = self.breakdown()
        native = b[STAGE_NATIVE]
        if native <= 0:
            return {stage: 1.0 for stage in STAGES}
        out: Dict[str, float] = {}
        running = 0.0
        for stage in STAGES:
            running += b.get(stage, 0.0)
            out[stage] = running / native
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "runs": self.runs,
            "total_seconds": self.total_seconds,
            "stage_seconds": self.breakdown(),
            "stage_shares": self.shares(),
            "cumulative_slowdown": self.slowdowns(),
        }

    @classmethod
    def from_dicts(
        cls, profiles: Iterable[Optional[Dict[str, object]]]
    ) -> Optional["StageProfiler"]:
        """Rebuild one profiler from several ``to_dict()`` snapshots.

        The fleet coordinator merges per-run stage profiles from many
        workers: attributed stage seconds and run wall time add, and the
        shares/slowdowns are recomputed from the merged totals.  Returns
        ``None`` when no snapshot carried a profile.
        """
        merged = cls()
        seen = False
        for profile in profiles:
            if not profile:
                continue
            seen = True
            for stage, seconds in profile["stage_seconds"].items():
                if stage != STAGE_NATIVE:
                    merged.add(stage, float(seconds))
            merged._run_wall += float(profile["total_seconds"])
            merged.runs += int(profile["runs"])
        return merged if seen else None

    def render(self, title: str = "Monitor overhead profile") -> str:
        """The §8 breakdown as a table."""
        breakdown = self.breakdown()
        shares = self.shares()
        slowdowns = self.slowdowns()
        config = {
            STAGE_NATIVE: "native",
            STAGE_BBFREQ: "native+bbfreq",
            STAGE_DATAFLOW: "native+bbfreq+dataflow",
            STAGE_ANALYSIS: "full monitor",
        }
        rows: List[str] = [
            title,
            "=" * len(title),
            f"{'stage':10s} {'wall time':>12s} {'share':>7s} "
            f"{'cumulative slowdown':>22s}",
        ]
        for stage in STAGES:
            rows.append(
                f"{stage:10s} {breakdown[stage] * 1000:9.3f} ms "
                f"{shares[stage] * 100:6.1f}% "
                f"{slowdowns[stage]:8.2f}x ({config[stage]})"
            )
        rows.append(
            f"{'total':10s} {self.total_seconds * 1000:9.3f} ms "
            f"{100.0:6.1f}%"
        )
        return "\n".join(rows)
