"""ChaosHarness: replay paper scenarios under fault schedules.

Turns "detection survives a flaky machine" into a regression-tested
property: a workload is run once per seed with a fresh
:class:`FaultInjector`, and the harness checks the verdict (and expected
rules) against the paper's classification for every seed.  The
(workload × seed) grid runs through :func:`repro.fleet.run_fleet`, in
process with one warm session at ``workers=1`` and on a process pool
above that; the trials are the same either way.

Determinism contract: ``(workload, profile, seed)`` fully determines the
run — the injector's RNG is the only randomness in the stack, so the same
seed reproduces the same fault schedule, the same event stream, and the
same verdict, bit for bit.  ``chaos_seeds`` derives the per-trial seeds
from one base seed for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.options import RunOptions
from repro.core.report import Verdict
from repro.faultinject.plan import FaultProfile, TRANSPARENT_PROFILE
from repro.fleet.engine import run_fleet
from repro.fleet.refs import FleetTask, WorkloadRef
from repro.fleet.report import FleetRunRecord
from repro.programs.base import Workload
from repro.programs.registry import key_of

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
    #: The string forms of the injected faults, in delivery order.
    faults: List[str]
    classified_correctly: bool
    degraded: bool
    #: The run's fleet record: its report dict, spans and telemetry.
    record: FleetRunRecord

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


def _trial_from_record(record: FleetRunRecord, seed: int) -> ChaosTrial:
    """One :class:`ChaosTrial` from the fleet record of its run."""
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
            record=record,
        )
    return ChaosTrial(
        seed=seed,
        verdict=Verdict(report["verdict"]),
        rules=tuple(sorted({w["rule"] for w in report["warnings"]})),
        reason=report["result"]["reason"],
        faults=list(report["injected_faults"]),
        classified_correctly=bool(record.ok),
        degraded=bool(report["degraded"]),
        record=record,
    )


def _as_ref(item: Union[Workload, WorkloadRef]) -> WorkloadRef:
    if isinstance(item, WorkloadRef):
        return item
    key = key_of(item.name)
    if key is None:
        raise LookupError(
            f"workload {item.name!r} is not a registry row; pass a "
            f"repro.fleet.WorkloadRef to run it under chaos"
        )
    return WorkloadRef.from_registry(key, item.name)


def run_chaos_suite(
    workloads: Sequence[Union[Workload, WorkloadRef]],
    base_seed: int = 1337,
    trials: int = 10,
    profile: FaultProfile = TRANSPARENT_PROFILE,
    options: Optional[RunOptions] = None,
    workers: int = 1,
) -> List[ChaosResult]:
    """The chaos stability suite: every workload under ``trials`` distinct
    fault schedules derived from ``base_seed``.

    Items are :class:`repro.fleet.WorkloadRef` or registry
    :class:`Workload` rows (resolved to refs by name).  Each trial runs
    with ``options`` (default: a :data:`DEFAULT_WALL_TIMEOUT` watchdog)
    plus its fault schedule.  The (workload × seed) grid is one
    :func:`repro.fleet.run_fleet` call; results do not depend on
    ``workers``: ``(workload, profile, seed)`` determines a trial
    bit-for-bit, the fleet merges in task order, and chaos runs are
    never retried — a watchdog kill under faults is a *finding*, not
    scheduling noise.
    """
    seeds = chaos_seeds(base_seed, trials)
    refs = [_as_ref(item) for item in workloads]
    if options is None:
        options = RunOptions(wall_timeout=DEFAULT_WALL_TIMEOUT)
    tasks = [
        FleetTask(
            index=i * len(seeds) + j,
            ref=ref,
            options=options.with_faults(profile, seed),
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
