"""The unified workload registry: one lookup API over every table.

Each table's rows come from one factory in its own package (the
micro/trusted/exploit/macro/extension/scenario modules); this module is
the single source of truth for which factory serves which table:

* :data:`REGISTRIES` maps every registry key to its ``(module, factory)``
  pair — the picklable coordinates fleet :class:`~repro.fleet.refs.
  WorkloadRef`\\ s resolve through;
* :func:`get` / :func:`find` / :func:`entries` give name- and tag-based
  lookup over all registries at once (``find(tags={"trojan", "table8"})``);
* tags are derived, never declared: the registry key (``table4`` ...
  ``scenarios``), the group (``micro`` / ``exploit`` / ``trusted`` ...),
  the expectation (``trojan`` / ``benign`` + the verdict name), and
  ``xfail`` for filed-but-unfixed evasions.

New code — the adversarial mutator included — should resolve workloads
through here.
"""

from __future__ import annotations

import importlib
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.programs.base import Workload

#: Registry key -> (module, factory) for every evaluation registry: the
#: paper's Tables 4-8, the macro benchmarks (§8.4), the trusted-extension
#: rows, the end-to-end scenarios (62 workloads in total), plus the
#: adversarial findings registry (filed evasions + regression rows).
REGISTRIES: Dict[str, Tuple[str, str]] = {
    "4": ("repro.programs.micro.execflow", "table4_workloads"),
    "5": ("repro.programs.micro.resource", "table5_workloads"),
    "6": ("repro.programs.micro.infoflow", "table6_workloads"),
    "7": ("repro.programs.trusted", "table7_workloads"),
    "8": ("repro.programs.exploits", "table8_workloads"),
    "macro": ("repro.programs.macro", "macro_workloads"),
    "ext": ("repro.programs.extensions", "extension_workloads"),
    "scenarios": ("repro.programs.scenarios", "scenario_workloads"),
    "adversarial": ("repro.programs.adversarial", "adversarial_workloads"),
}

#: Registry traversal order for "run everything" sweeps (matches
#: ``repro report``).  The adversarial registry is deliberately *not*
#: part of the default sweep: its xfail rows document open evasions and
#: would fail a correctness gate by design — select it explicitly with
#: ``keys=("adversarial",)`` or ``find(tags={"adversarial"})``.
REGISTRY_ORDER: Tuple[str, ...] = (
    "4", "5", "6", "7", "8", "macro", "ext", "scenarios"
)

#: Key -> group tag (the second axis of tag-based lookup).
_GROUPS: Dict[str, str] = {
    "4": "micro",
    "5": "micro",
    "6": "micro",
    "7": "trusted",
    "8": "exploit",
    "macro": "macro",
    "ext": "extension",
    "scenarios": "scenario",
    "adversarial": "adversarial",
}


def registry_workloads(key: str) -> List[Workload]:
    """All rows of one registry, freshly built."""
    module_name, factory_name = REGISTRIES[key]
    module = importlib.import_module(module_name)
    return list(getattr(module, factory_name)())


def workload_tags(key: str, workload: Workload) -> FrozenSet[str]:
    """The derived tag set of one registry row."""
    tags = {
        f"table{key}" if key.isdigit() else key,
        _GROUPS.get(key, key),
        "trojan" if workload.expected_verdict.flagged else "benign",
        workload.expected_verdict.value,
    }
    if workload.xfail:
        tags.add("xfail")
    return frozenset(tags)


def entries(
    keys: Optional[Sequence[str]] = None,
) -> Iterator[Tuple[str, Workload]]:
    """Yield ``(registry key, workload)`` over the named registries, in
    registry order then row order (all of :data:`REGISTRY_ORDER` by
    default)."""
    for key in keys if keys is not None else REGISTRY_ORDER:
        for workload in registry_workloads(key):
            yield key, workload


def workloads(keys: Optional[Sequence[str]] = None) -> List[Workload]:
    return [w for _, w in entries(keys)]


def names(keys: Optional[Sequence[str]] = None) -> List[str]:
    return [w.name for _, w in entries(keys)]


#: Row name -> the key of the registry holding it (names are unique
#: across registries); built on first lookup, once per process.
_KEY_OF: Optional[Dict[str, str]] = None


def key_of(name: str) -> Optional[str]:
    """The key of the registry holding the row ``name``, or None."""
    global _KEY_OF
    if _KEY_OF is None:
        _KEY_OF = {
            w.name: key
            for key, w in entries(REGISTRY_ORDER + ("adversarial",))
        }
    return _KEY_OF.get(name)


def get(name: str, keys: Optional[Sequence[str]] = None) -> Workload:
    """The unique registry row called ``name`` (searches the adversarial
    registry too when ``keys`` is not narrowed), freshly built; only its
    own registry is built."""
    search = tuple(keys) if keys is not None else (
        REGISTRY_ORDER + ("adversarial",)
    )
    key = key_of(name)
    if key in search:
        return next(w for w in registry_workloads(key) if w.name == name)
    raise LookupError(
        f"no workload named {name!r} in registries {', '.join(search)}"
    )


def find(
    tags: Iterable[str],
    keys: Optional[Sequence[str]] = None,
) -> List[Workload]:
    """All rows carrying *every* tag in ``tags``.

    ``find(tags={"trojan", "table8"})`` is the seven real exploits;
    ``find(tags={"benign"}, keys=("7",))`` the false-positive study.
    Searches the adversarial registry as well unless ``keys`` narrows
    the scope.
    """
    wanted = frozenset(tags)
    search = tuple(keys) if keys is not None else (
        REGISTRY_ORDER + ("adversarial",)
    )
    return [
        workload
        for key, workload in entries(search)
        if wanted <= workload_tags(key, workload)
    ]
