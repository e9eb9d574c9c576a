"""The paper's §9 overhead study, measured by running it.

Section 9 compares native execution against the monitor under
cumulative configurations.  :func:`measure_overhead` runs one guest
under four of them on one warm :class:`~repro.core.engine.EngineCache`:

* ``native`` — no monitor (``HTH(monitored=False)``);
* ``no-dataflow`` — the monitor with taint tracking off;
* ``no-bbfreq`` — the monitor with basic-block counting off;
* ``full`` — the complete monitor.

:func:`interleave` runs each config once to warm the translations and
the block JIT, then :data:`REPS` rounds run every config once, each
round starting one config later so none always runs first.  Every timed run is a production
run: nothing here hooks the monitor.

The expected order is native <= each ablation <= full.  :func:`order_label`
says whether the spread supports it, with the same pair rule as the
benchmark's ablation: ``monotone`` when every pair's medians run the
right way, ``unresolved`` when every wrong-way pair overlaps inside its
quartiles, ``inverted`` otherwise.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import EngineCache
from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.harrier.config import HarrierConfig

#: Config name -> monitor configuration (``None``: run unmonitored).
CONFIGS: Dict[str, Optional[HarrierConfig]] = {
    "native": None,
    "no-dataflow": HarrierConfig(track_dataflow=False),
    "no-bbfreq": HarrierConfig(track_bb_frequency=False),
    "full": HarrierConfig(),
}

#: ``(a, b)``: config ``a`` does a subset of ``b``'s work, so it should
#: not run slower.
ORDER_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("native", "no-dataflow"),
    ("native", "no-bbfreq"),
    ("no-dataflow", "full"),
    ("no-bbfreq", "full"),
)

#: Timed rounds per study.  Nine samples give quartiles with two runs
#: beyond each, and keep a small guest's study under a second.
REPS = 9

Stats = Dict[str, Dict[str, float]]


def quartiles(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of at least two samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def inversions(stats: Stats) -> List[Tuple[str, str]]:
    """The :data:`ORDER_PAIRS` whose medians run the wrong way."""
    return [
        (a, b) for a, b in ORDER_PAIRS
        if stats[a]["median"] > stats[b]["median"]
    ]


def order_label(stats: Stats) -> str:
    """``monotone``, ``unresolved`` or ``inverted`` (see module doc)."""
    inverted = inversions(stats)
    if not inverted:
        return "monotone"
    if all(stats[b]["q3"] >= stats[a]["q1"] for a, b in inverted):
        return "unresolved"
    return "inverted"


@dataclass(frozen=True)
class OverheadStudy:
    """Wall seconds of every timed run, per config, in run order."""

    seconds: Dict[str, List[float]]

    @property
    def stats(self) -> Stats:
        return {name: quartiles(ts) for name, ts in self.seconds.items()}

    def render(self, title: str) -> str:
        stats = self.stats
        native = stats["native"]["median"]
        reps = len(self.seconds["native"])
        rows = [
            title,
            "=" * len(title),
            f"{reps} interleaved reps per config after one warm-up run",
            f"{'config':12s} {'median':>10s} {'Q1':>10s} {'Q3':>10s} "
            f"{'x native':>9s}",
        ]
        for name, s in stats.items():
            rows.append(
                f"{name:12s} {s['median'] * 1000:7.3f} ms "
                f"{s['q1'] * 1000:7.3f} ms {s['q3'] * 1000:7.3f} ms "
                f"{s['median'] / native:8.2f}x"
            )
        label = order_label(stats)
        detail = ", ".join(f"{a} > {b}" for a, b in inversions(stats))
        rows.append(
            f"order: {label}"
            + (f" (median {detail})" if detail else "")
        )
        return "\n".join(rows)


def interleave(runs: Dict[str, Callable[[], object]]) -> Dict[str, List[float]]:
    """Wall seconds of :data:`REPS` calls of every run, in run order.

    Each run is called once untimed to warm up; then every round calls
    each run once, starting one run later than the round before."""
    for run in runs.values():
        run()
    names = list(runs)
    seconds: Dict[str, List[float]] = {name: [] for name in names}
    for rep in range(REPS):
        turn = rep % len(names)
        for name in names[turn:] + names[:turn]:
            started = time.perf_counter()
            runs[name]()
            seconds[name].append(time.perf_counter() - started)
    return seconds


def measure_overhead(
    path: str,
    source: str,
    options: Optional[RunOptions] = None,
    argv: Optional[Sequence[str]] = None,
    stdin: Optional[str] = None,
    setup: Optional[Callable[[HTH], None]] = None,
) -> OverheadStudy:
    """Time the guest ``source`` (assembled as ``path``) under every
    :data:`CONFIGS` entry; ``setup(hth)`` seeds each machine first."""
    options = options if options is not None else RunOptions()
    engine = EngineCache()

    def run(config: Optional[HarrierConfig]) -> None:
        hth = HTH(
            monitored=config is not None,
            options=options.replaced(harrier_config=config),
            engine=engine,
        )
        if setup is not None:
            setup(hth)
        hth.run(engine.image(path, source), argv=argv, stdin=stdin)

    return OverheadStudy(interleave({
        name: (lambda config=config: run(config))
        for name, config in CONFIGS.items()
    }))
