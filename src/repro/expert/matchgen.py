"""Generated pattern matchers: one straight-line function per join node.

Matching a :class:`~repro.expert.conditions.Pattern` against a fact
means, constraint by constraint in declaration order:

* the fact's template must have the slot, else no match; its value is
  the one the template's reader for the slot takes from the fact's
  record;
* a variable ``V(name)`` already bound must equal the slot value
  (``bound != value``), and an unbound one binds it;
* a predicate ``P(fn)`` must hold for the value and the bindings so
  far, including variables this pattern bound before it;
* a literal must equal the value (``value != literal`` fails).

A match returns a new dict: the incoming bindings, then the variables
the pattern bound in order, then ``bind_as`` (the fact itself).  The
interpreted form of these rules is the reference matcher in
``tests/oracles/matcher.py``.

Inside a Rete network every token reaching a node binds the same names,
so whether a variable binds or compares is known when the node is
built.  :func:`build_matcher` turns that into Python source with no
branch on constraint kind: the slot names, literals, predicates and
variable names become default arguments, and the extended bindings are
one dict expression.  ``Secpert`` and its patterns are built afresh for
every run, so the source depends only on the pattern's *shape* (what
kind each constraint is and which variables are bound upstream) and is
compiled once per shape into :data:`MATCHER_CACHE`; a new pattern of a
known shape costs one function call, not a ``compile``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Tuple

from repro.expert.conditions import Bindings, P, Pattern, V
from repro.expert.template import Fact

#: ``matcher(fact, bindings)``: the extended bindings, or None.
Matcher = Callable[[Fact, Bindings], Optional[Bindings]]

#: Shapes kept in :data:`MATCHER_CACHE`.  Secpert's ten rules build five
#: join nodes of three shapes, so the bound only caps churn from engines
#: built with many distinct rule sets; a factory takes a few kB.
MATCHER_CACHE_MAX = 256

Shape = Tuple[Any, ...]


def _steps(pattern: Pattern, bound: AbstractSet[str]
           ) -> Tuple[Tuple[Any, ...], List[Any]]:
    """``pattern``'s shape steps under ``bound``, and the constants the
    generated code takes, in parameter order."""
    steps: List[Tuple[Any, ...]] = []
    consts: List[Any] = [pattern.template]
    local: Dict[Any, int] = {}  # variable name -> step that bound it
    for index, (slot, constraint) in enumerate(pattern.constraints.items()):
        consts.append(slot)
        if isinstance(constraint, V):
            name = constraint.name
            if name in local:
                steps.append(("again", local[name]))
            elif name in bound:
                steps.append(("bound",))
                consts.append(name)
            else:
                local[name] = index
                steps.append(("new",))
                consts.append(name)
        elif isinstance(constraint, P):
            arity = constraint._arity
            steps.append(("pred", arity))
            # Signature unknown (arity 0): P.check probes both forms.
            consts.append(constraint.fn if arity else constraint.check)
        else:
            steps.append(("literal",))
            consts.append(constraint)
    if pattern.bind_as is not None:
        consts.append(pattern.bind_as)
    return tuple(steps), consts


def _source(shape: Shape) -> str:
    """The factory source for ``shape``: ``make(*consts)`` returns the
    matcher with the constants bound as default arguments."""
    steps, bind_as, upstream = shape
    params = ["_t"]
    body = [
        "    template = fact.template",
        "    if template.name != _t:",
        "        return None",
        "    readers = template.readers",
        "    record = fact.record",
    ]
    new: List[str] = []  # "key: local" items of the bindings built so far

    def scope() -> str:
        if not new:
            return "bindings"
        head = ["**bindings"] if upstream else []
        return "{" + ", ".join(head + new) + "}"

    for i, step in enumerate(steps):
        params.append(f"_s{i}")
        body += [f"    if _s{i} not in readers:", "        return None"]
        value = f"readers[_s{i}](record)"
        kind = step[0]
        if kind == "new":
            params.append(f"_n{i}")
            body.append(f"    x{i} = {value}")
            new.append(f"_n{i}: x{i}")
            continue
        if kind == "again":
            test = f"x{step[1]} != {value}"
        elif kind == "bound":
            params.append(f"_n{i}")
            test = f"bindings[_n{i}] != {value}"
        elif kind == "pred":
            params.append(f"_p{i}")
            arity = step[1]
            if arity == 1:
                test = f"not _p{i}({value})"
            else:
                test = f"not _p{i}({value}, {scope()})"
        else:
            params.append(f"_c{i}")
            test = f"{value} != _c{i}"
        body += [f"    if {test}:", "        return None"]
    items = (["**bindings"] if upstream else []) + new
    if bind_as:
        params.append("_b")
        items.append("_b: fact")
    body.append("    return {" + ", ".join(items) + "}")
    defaults = ", ".join(f"{p}={p}" for p in params)
    return "\n".join(
        [f"def make({', '.join(params)}):",
         f"  def match(fact, bindings, {defaults}):"]
        + ["  " + line for line in body]
        + ["  return match"]
    )


def _compile(shape: Shape) -> Callable[..., Matcher]:
    namespace: Dict[str, Any] = {}
    exec(compile(_source(shape), "<matchgen>", "exec"), namespace)
    return namespace["make"]


class MatcherCache:
    """Pattern shape -> matcher factory, bounded.

    The least recently used shape is evicted first once ``max_entries``
    is exceeded; matchers already built keep their code.  A Rete node
    looks its shape up once, when it is built; only the ad hoc
    ``Pattern.match`` looks one up per call.
    """

    def __init__(self, max_entries: int = MATCHER_CACHE_MAX) -> None:
        self.max_entries = max_entries
        self._factories: "OrderedDict[Shape, Callable[..., Matcher]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        #: ``compile()`` calls (cache misses).
        self.compiles = 0
        self.evictions = 0
        #: Matchers built, hits and misses together.
        self.built = 0

    def factory_for(self, shape: Shape) -> Callable[..., Matcher]:
        with self._lock:
            self.built += 1
            factories = self._factories
            factory = factories.pop(shape, None)
            if factory is None:
                factory = _compile(shape)
                self.compiles += 1
            factories[shape] = factory  # (re)inserted as most recent
            while len(factories) > self.max_entries:
                factories.popitem(last=False)
                self.evictions += 1
            return factory

    def stats(self) -> Dict[str, int]:
        return {
            "shapes": len(self._factories),
            "compiles": self.compiles,
            "evictions": self.evictions,
            "built": self.built,
        }


#: The process-wide matcher cache (fleet and serve workers each own one).
MATCHER_CACHE = MatcherCache()

#: ``secpert_matcher_*`` gauge name -> :meth:`MatcherCache.stats` key.
GAUGES = {
    "secpert_matcher_shapes": "shapes",
    "secpert_matcher_compiles": "compiles",
    "secpert_matcher_evictions": "evictions",
    "secpert_matcher_builds": "built",
}


def sample_gauges(registry, stats: Optional[Dict[str, int]] = None,
                  **labels: str) -> None:
    """Write the matcher cache's state (this process's, or ``stats``
    from another) into ``secpert_matcher_*`` gauges on ``registry``."""
    if stats is None:
        stats = MATCHER_CACHE.stats()
    for gauge, key in GAUGES.items():
        registry.gauge(gauge, **labels).set(float(stats.get(key, 0) or 0))


def build_matcher(pattern: Pattern, bound: AbstractSet[str]) -> Matcher:
    """``pattern``'s matcher for bindings holding exactly ``bound``."""
    steps, consts = _steps(pattern, bound)
    shape = (steps, pattern.bind_as is not None, bool(bound))
    return MATCHER_CACHE.factory_for(shape)(*consts)
