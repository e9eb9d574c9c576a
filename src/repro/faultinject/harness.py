"""ChaosHarness: replay paper scenarios under fault schedules.

Turns "detection survives a flaky machine" into a regression-tested
property: a workload is run once per seed with a fresh
:class:`FaultInjector`, and the harness checks the verdict (and expected
rules) against the paper's classification for every seed.

Determinism contract: ``(workload, profile, seed)`` fully determines the
run — the injector's RNG is the only randomness in the stack, so the same
seed reproduces the same fault schedule, the same event stream, and the
same verdict, bit for bit.  ``chaos_seeds`` derives the per-trial seeds
from one base seed for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.report import RunReport, Verdict
from repro.faultinject.plan import (
    FaultProfile,
    InjectedFault,
    TRANSPARENT_PROFILE,
)
from repro.programs.base import Workload

#: Safety net for chaos runs: convert a wedged guest into a 'watchdog'
#: result rather than hanging the suite (generous; virtual-time budgets
#: normally end runs long before this).
DEFAULT_WALL_TIMEOUT = 60.0


def chaos_seeds(base_seed: int, count: int) -> List[int]:
    """``count`` distinct trial seeds derived deterministically."""
    # A fixed odd multiplier keeps the seeds well-separated while staying
    # reproducible from the single recorded base seed.
    return [(base_seed + 0x9E3779B1 * i) & 0x7FFFFFFF for i in range(count)]


@dataclass
class ChaosTrial:
    """One workload run under one fault schedule."""

    seed: int
    verdict: Verdict
    rules: Tuple[str, ...]
    reason: str                      # RunResult.reason
    #: InjectedFault records in delivery order — their string forms when
    #: the trial was rebuilt from a fleet wire record.
    faults: List[InjectedFault]
    classified_correctly: bool
    degraded: bool

    @property
    def fault_count(self) -> int:
        return len(self.faults)


@dataclass
class ChaosResult:
    """All trials of one workload; stable iff every trial classified
    exactly as the paper's table expects."""

    workload: str
    expected: Verdict
    profile: FaultProfile
    trials: List[ChaosTrial] = field(default_factory=list)

    @property
    def stable(self) -> bool:
        return all(t.classified_correctly for t in self.trials)

    @property
    def verdicts(self) -> List[Verdict]:
        return [t.verdict for t in self.trials]

    @property
    def total_faults(self) -> int:
        return sum(t.fault_count for t in self.trials)

    def failing_seeds(self) -> List[int]:
        """Seeds to hand to ``repro chaos --seed`` for replay."""
        return [t.seed for t in self.trials if not t.classified_correctly]


def run_one(
    workload: Workload,
    seed: int,
    profile: FaultProfile = TRANSPARENT_PROFILE,
    wall_timeout: Optional[float] = DEFAULT_WALL_TIMEOUT,
    telemetry=None,
) -> RunReport:
    """One chaos-perturbed run of ``workload`` (fresh machine+injector)."""
    from repro.core.options import RunOptions

    return workload.run(
        telemetry=telemetry,
        options=RunOptions(wall_timeout=wall_timeout).with_faults(
            profile, seed
        ),
    )


def _trial_from_record(record, seed: int) -> ChaosTrial:
    """Rebuild one :class:`ChaosTrial` from a fleet wire record."""
    report = record.report
    if report is None:
        # Worker died or the run raised: surface as a wedged trial so
        # the suite reports it instead of silently dropping the seed.
        return ChaosTrial(
            seed=seed,
            verdict=Verdict.BENIGN,
            rules=(),
            reason="error",
            faults=[],
            classified_correctly=False,
            degraded=True,
        )
    return ChaosTrial(
        seed=seed,
        verdict=Verdict(report["verdict"]),
        rules=tuple(sorted({w["rule"] for w in report["warnings"]})),
        reason=report["result"]["reason"],
        faults=list(report["injected_faults"]),
        classified_correctly=bool(record.ok),
        degraded=bool(report["degraded"]),
    )


def run_chaos(
    workload: Workload,
    seeds: Sequence[int],
    profile: FaultProfile = TRANSPARENT_PROFILE,
    wall_timeout: Optional[float] = DEFAULT_WALL_TIMEOUT,
    telemetry=None,
) -> ChaosResult:
    """Run ``workload`` once per seed; collect stability evidence."""
    result = ChaosResult(
        workload=workload.name,
        expected=workload.expected_verdict,
        profile=profile,
    )
    for seed in seeds:
        report = run_one(
            workload, seed, profile, wall_timeout, telemetry=telemetry
        )
        result.trials.append(
            ChaosTrial(
                seed=seed,
                verdict=report.verdict,
                rules=tuple(sorted({w.rule for w in report.warnings})),
                reason=report.result.reason,
                faults=list(report.injected_faults),
                classified_correctly=workload.classified_correctly(report),
                degraded=report.degraded,
            )
        )
    return result


def run_chaos_suite(
    workloads: Sequence[Workload],
    base_seed: int = 1337,
    trials: int = 10,
    profile: FaultProfile = TRANSPARENT_PROFILE,
    wall_timeout: Optional[float] = DEFAULT_WALL_TIMEOUT,
    workers: int = 1,
) -> List[ChaosResult]:
    """The chaos stability suite: every workload under ``trials`` distinct
    fault schedules derived from ``base_seed``.

    ``workers > 1`` runs the (workload × seed) grid on a fleet of
    processes.  Items may then be :class:`repro.fleet.WorkloadRef` or
    registry :class:`Workload` rows (resolved to refs by name).  Results
    are identical either way: ``(workload, profile, seed)`` determines a
    trial bit-for-bit, the fleet merges in task order, and chaos runs are
    never retried — a watchdog kill under faults is a *finding*, not
    scheduling noise.
    """
    seeds = chaos_seeds(base_seed, trials)
    if workers > 1:
        return _run_chaos_fleet(
            workloads, seeds, profile, wall_timeout, workers
        )
    resolved = [
        w if isinstance(w, Workload) else w.resolve() for w in workloads
    ]
    return [
        run_chaos(w, seeds, profile, wall_timeout) for w in resolved
    ]


def _run_chaos_fleet(
    workloads,
    seeds: Sequence[int],
    profile: FaultProfile,
    wall_timeout: Optional[float],
    workers: int,
) -> List[ChaosResult]:
    """Fan the (workload × seed) grid out over a fleet and regroup."""
    from repro.core.options import RunOptions
    from repro.fleet import FleetTask, run_fleet, workload_refs

    def as_ref(item):
        if isinstance(item, Workload):
            for ref in workload_refs():
                if ref.name == item.name:
                    return ref
            raise LookupError(
                f"workload {item.name!r} is not a registry row; pass a "
                f"repro.fleet.WorkloadRef to run it in a chaos fleet"
            )
        return item

    refs = [as_ref(item) for item in workloads]
    base = RunOptions(wall_timeout=wall_timeout)
    tasks = [
        FleetTask(
            index=i * len(seeds) + j,
            ref=ref,
            options=base.with_faults(profile, seed),
        )
        for i, ref in enumerate(refs)
        for j, seed in enumerate(seeds)
    ]
    fleet = run_fleet(tasks, workers=workers, max_retries=0)
    results: List[ChaosResult] = []
    per = len(seeds)
    for i, ref in enumerate(refs):
        records = fleet.runs[i * per:(i + 1) * per]
        results.append(
            ChaosResult(
                workload=ref.name,
                expected=ref.resolve().expected_verdict,
                profile=profile,
                trials=[
                    _trial_from_record(record, seed)
                    for record, seed in zip(records, seeds)
                ],
            )
        )
    return results
