"""The adversarial variant sweep: mutate, fan out, score, report.

This module drives :mod:`repro.programs.mutate` at scale: every Trojan
of Tables 4-8 becomes the parent of N seed-deterministic variants per
mutation class, the whole set fans out through the fleet engine
(round-robin ``shard_by="interleave"``: the parent process only plans
refs, and every worker mutates, assembles and runs its own variants),
and the verdicts come back as a detection-rate matrix — variant class
x policy rule x verdict.

The point of the exercise is the *evasions*: any variant whose verdict
lands **below** its parent's expected severity is a detector blind
spot.  :func:`run_sweep` lists them, :meth:`SweepResult.render_report`
explains them (with the replayed mutation recipe), and the workflow is
to file each one in :mod:`repro.programs.adversarial` and then fix it
(see ``masquerade libc hardcode`` for a completed round trip).

Determinism contract: the BENCH payload (:meth:`SweepResult.to_dict`)
is a pure function of (parents, classes, per-class, seed, options) —
no wall-clock, no scheduling facts — so same-seed reruns are
bit-identical, which CI checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.options import RunOptions
from repro.fleet.engine import run_fleet
from repro.fleet.refs import WorkloadRef
from repro.fleet.report import FleetReport
from repro.programs.mutate import MUTATION_CLASSES, variant_name
from repro.programs.registry import find, get

#: Verdict severity order, for "did the variant score at least as high
#: as its parent was expected to".
SEVERITY = {"benign": 0, "low": 1, "medium": 2, "high": 3}

#: Registries the default parent set is drawn from: every *Trojan* row
#: of the micro tables and the real-exploit table.  Table 7 (trusted
#: programs) and the benign halves contribute nothing to hide.
DEFAULT_PARENT_KEYS: Tuple[str, ...] = ("4", "5", "6", "8")


@dataclass(frozen=True)
class PlannedVariant:
    """One sweep cell: where the variant comes from and what a correct
    detector must say about it (inherited from the parent row)."""

    ref: WorkloadRef
    parent: str
    klass: str
    seed: int
    expected_verdict: str
    expected_rules: Tuple[str, ...]

    @property
    def trojan(self) -> bool:
        return self.expected_verdict != "benign"


def default_parents() -> List[str]:
    """Names of every Trojan row in the default registries."""
    return [
        w.name for w in find({"trojan"}, keys=DEFAULT_PARENT_KEYS)
    ]


def plan_sweep(
    parents: Optional[Sequence[str]] = None,
    classes: Optional[Sequence[str]] = None,
    per_class: int = 1,
    seed: int = 0,
) -> List[PlannedVariant]:
    """Lay out the sweep grid: parents x classes x per-class seeds.

    Each cell is a picklable :class:`WorkloadRef` onto
    ``repro.programs.mutate.variants(parent, klass, vseed)`` — workers
    regenerate the variant locally, so the plan itself stays tiny no
    matter how many thousand variants it spans.  ``per_class`` must be
    at least 1: an empty grid would score a vacuous 100% detection rate.
    """
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    parent_names = (
        list(parents) if parents is not None else default_parents()
    )
    class_names = (
        list(classes) if classes is not None else list(MUTATION_CLASSES)
    )
    for klass in class_names:
        if klass not in MUTATION_CLASSES:
            raise ValueError(
                f"unknown mutation class {klass!r}; "
                f"choose from {', '.join(MUTATION_CLASSES)}"
            )
    plan: List[PlannedVariant] = []
    for name in parent_names:
        parent = get(name)  # raises LookupError on a bad name, early
        for klass in class_names:
            for i in range(per_class):
                vseed = seed + i
                plan.append(
                    PlannedVariant(
                        ref=WorkloadRef(
                            module="repro.programs.mutate",
                            factory="variants",
                            name=variant_name(name, klass, vseed),
                            params=(name, klass, vseed),
                        ),
                        parent=name,
                        klass=klass,
                        seed=vseed,
                        expected_verdict=parent.expected_verdict.value,
                        expected_rules=tuple(parent.expected_rules),
                    )
                )
    return plan


@dataclass
class SweepResult:
    """Everything one sweep produced: the fleet report, the matrix,
    and the scored evasion list."""

    plan: List[PlannedVariant]
    fleet: FleetReport
    seed: int
    per_class: int
    matrix: Dict[str, Dict[str, object]] = field(default_factory=dict)
    evasions: List[Dict[str, object]] = field(default_factory=list)
    escalations: List[Dict[str, object]] = field(default_factory=list)
    errors: List[Dict[str, object]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.plan)

    @property
    def detection_rate(self) -> float:
        """Fraction of completed *Trojan* variants scored at or above
        the parent's expected severity."""
        detected = scored = 0
        for klass in self.matrix.values():
            scored += klass["trojans"]  # type: ignore[operator]
            detected += klass["detected"]  # type: ignore[operator]
        return detected / scored if scored else 1.0

    @property
    def exact_rate(self) -> float:
        """Fraction of completed variants classified exactly like the
        parent row (verdict and expected rules)."""
        exact = done = 0
        for klass in self.matrix.values():
            done += klass["completed"]  # type: ignore[operator]
            exact += klass["exact"]  # type: ignore[operator]
        return exact / done if done else 1.0

    def to_dict(self) -> Dict[str, object]:
        """The BENCH payload.  Deterministic: configuration + verdict-
        derived facts only, never wall-clock or scheduling."""
        parents = []
        for planned in self.plan:
            if planned.parent not in parents:
                parents.append(planned.parent)
        classes = []
        for planned in self.plan:
            if planned.klass not in classes:
                classes.append(planned.klass)
        return {
            "benchmark": "adversarial_sweep",
            "config": {
                "parents": parents,
                "classes": classes,
                "per_class": self.per_class,
                "seed": self.seed,
                "variants": self.total,
            },
            "matrix": self.matrix,
            "detection_rate": round(self.detection_rate, 6),
            "exact_rate": round(self.exact_rate, 6),
            "evasions": self.evasions,
            "escalations": self.escalations,
            "errors": self.errors,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_report(self) -> str:
        """The human-readable evasion report."""
        lines = [
            "adversarial sweep: "
            f"{self.total} variants, {len(self.matrix)} classes",
            f"detection rate {self.detection_rate:.1%} "
            f"(exact {self.exact_rate:.1%}), "
            f"{len(self.evasions)} evasion(s), "
            f"{len(self.escalations)} escalation(s), "
            f"{len(self.errors)} error(s)",
            "",
            f"{'class':<14} {'total':>6} {'detected':>9} "
            f"{'exact':>6} {'evasions':>9}",
        ]
        for klass in sorted(self.matrix):
            cell = self.matrix[klass]
            lines.append(
                f"{klass:<14} {cell['total']:>6} "
                f"{cell['detected']:>4}/{cell['trojans']:<4} "
                f"{cell['exact']:>6} {len(cell['evasions']):>9}"
            )
        if self.evasions:
            lines.append("")
            lines.append("evasions (file these in repro.programs."
                         "adversarial, then fix them):")
            for evasion in self.evasions:
                lines.append(
                    f"  {evasion['name']}: expected "
                    f"{evasion['expected']} got {evasion['actual']} "
                    f"(rules fired: "
                    f"{', '.join(evasion['rules_fired']) or 'none'})"
                )
                for op in self._recipe_ops(evasion):
                    lines.append(f"      {op}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _recipe_ops(evasion: Dict[str, object]) -> List[str]:
        """Replay the evasion's mutation to show its recipe (cheap:
        mutation only, no execution)."""
        from repro.programs.mutate import mutate_workload

        try:
            variant = mutate_workload(
                get(str(evasion["parent"])),
                str(evasion["klass"]),
                int(evasion["seed"]),  # type: ignore[arg-type]
            )
        except Exception:  # pragma: no cover - report stays best-effort
            return []
        return list(variant.recipe.ops)  # type: ignore[union-attr]


def _score(plan: Sequence[PlannedVariant],
           fleet: FleetReport) -> SweepResult:
    """Join the plan to the fleet records (by task index) and fold
    everything into the class x rule x verdict matrix."""
    result = SweepResult(plan=list(plan), fleet=fleet, seed=0, per_class=0)
    matrix: Dict[str, Dict[str, object]] = {}
    for planned, record in zip(plan, fleet.runs):
        cell = matrix.setdefault(planned.klass, {
            "total": 0, "completed": 0, "errors": 0,
            "trojans": 0, "detected": 0, "exact": 0,
            "verdicts": {}, "rules": {}, "evasions": [],
        })
        cell["total"] += 1  # type: ignore[operator]
        if record.failed:
            cell["errors"] += 1  # type: ignore[operator]
            result.errors.append({
                "name": planned.ref.name,
                "parent": planned.parent,
                "klass": planned.klass,
                "seed": planned.seed,
                "error": (record.error or "no report").splitlines()[-1],
            })
            continue
        cell["completed"] += 1  # type: ignore[operator]
        verdict = str(record.report["verdict"])
        verdicts = cell["verdicts"]  # type: ignore[assignment]
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        rules = cell["rules"]  # type: ignore[assignment]
        fired = sorted({
            str(w["rule"])
            for w in record.report.get("warnings", [])
        })
        for rule in fired:
            rules[rule] = rules.get(rule, 0) + 1
        if record.ok:
            cell["exact"] += 1  # type: ignore[operator]
        entry = {
            "name": planned.ref.name,
            "parent": planned.parent,
            "klass": planned.klass,
            "seed": planned.seed,
            "expected": planned.expected_verdict,
            "actual": verdict,
            "rules_fired": fired,
        }
        if planned.trojan:
            cell["trojans"] += 1  # type: ignore[operator]
            if SEVERITY[verdict] >= SEVERITY[planned.expected_verdict]:
                cell["detected"] += 1  # type: ignore[operator]
            else:
                cell["evasions"].append(  # type: ignore[union-attr]
                    planned.ref.name
                )
                result.evasions.append(entry)
        elif SEVERITY[verdict] > SEVERITY[planned.expected_verdict]:
            result.escalations.append(entry)
    result.matrix = matrix
    return result


def run_sweep(
    parents: Optional[Sequence[str]] = None,
    classes: Optional[Sequence[str]] = None,
    per_class: int = 1,
    seed: int = 0,
    options: Optional[RunOptions] = None,
    workers: int = 4,
    shard_by: str = "interleave",
    max_retries: int = 1,
    cache_dir: Optional[str] = None,
) -> SweepResult:
    """Plan, fan out, and score one adversarial sweep.

    Defaults sweep every mutation class over every Trojan of Tables
    4-8; ``per_class`` scales the grid (30 parents x 7 classes means
    ``per_class=5`` already exceeds a thousand variants).  The fleet
    shards round-robin by default, so the parent never touches a
    variant: workers resolve, mutate and assemble their own.  Each
    worker's warm engine still translates and relocates libc once for
    all its variants (see :class:`repro.harrier.blockcache
    .BlockCacheStore`).  ``shard_by="cluster"`` is opt-in: it assembles
    every variant in the parent first to order them by similarity,
    which costs more than the warmer caches save on a sweep.
    """
    plan = plan_sweep(parents, classes, per_class, seed)
    if options is None:
        # Belt and suspenders: adversarial inputs are exactly where a
        # runaway guest is most likely, so sweeps always run with a
        # per-variant wall watchdog (a hit surfaces as an error row).
        options = RunOptions(wall_timeout=60.0)
    fleet = run_fleet(
        [planned.ref for planned in plan],
        options=options,
        workers=workers,
        shard_by=shard_by,
        max_retries=max_retries,
        cache_dir=cache_dir,
    )
    result = _score(plan, fleet)
    result.seed = seed
    result.per_class = per_class
    return result
