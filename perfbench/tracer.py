"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of every layer of the
``repro`` stack (``Assembler.assemble``, ``Kernel.run``,
``Secpert.analyze``, ...) with a timing wrapper.  Each call becomes a
span with a name, its layer, start and end (``perf_counter`` seconds), its
parent span, and the process and thread it ran on.  Nothing in ``src/``
is edited: methods are replaced on their classes, and module functions in
their defining module *and* in every module that bound them with
``from x import f``, so no caller slips past.

Spans stay in memory.  Every span's self time (duration minus the time
its direct children cover) is folded into per-name totals as it closes,
so hot spans (``Harrier.on_block`` fires hundreds of thousands of times
per run) cost a few dict updates, not a record each; only the first
:data:`KEEP_PER_NAME` spans of each name are kept verbatim for the span
file.  :meth:`Tracer.dump` writes both at the end.

Forked children (fleet and serve workers) inherit the wrappers; an
at-fork hook gives each child an empty span table, and the worker entry
points are wrapped so each child writes its own span file when it
finishes.  The benchmark merges those files after the children exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Verbatim spans kept per span name (the totals always cover every span).
KEEP_PER_NAME = 2000

#: (module, class or None, attribute, layer).  Class attributes are
#: wrapped in place; module functions are rebound wherever imported.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.isa.assembler", "Assembler", "assemble", "isa"),
    ("repro.isa.translate", None, "translate_block", "isa"),
    ("repro.programs.mutate", None, "mutate_workload", "programs"),
    ("repro.kernel.kernel", "Kernel", "run", "kernel"),
    ("repro.kernel.loader", "Loader", "load", "kernel"),
    ("repro.kernel.syscalls", "SyscallTable", "dispatch", "kernel"),
    ("repro.core.hth", "HTH", "__init__", "core"),
    ("repro.core.hth", "HTH", "run", "core"),
    ("repro.core.report", "RunReport", "to_dict", "core"),
    ("repro.api", "Session", "run", "core"),
    ("repro.api", "Session", "run_workload", "core"),
    ("repro.harrier.monitor", "Harrier", "on_block", "harrier"),
    ("repro.harrier.monitor", "Harrier", "on_syscall_pre", "harrier"),
    ("repro.harrier.monitor", "Harrier", "on_syscall_post", "harrier"),
    ("repro.telemetry.provenance", "ProvenanceRecorder", "record_source",
     "provenance"),
    ("repro.telemetry.provenance", "ProvenanceRecorder", "observe_event",
     "provenance"),
    ("repro.telemetry.provenance", "ProvenanceRecorder", "observe_block",
     "provenance"),
    ("repro.telemetry.provenance", "ProvenanceRecorder", "evidence_for",
     "provenance"),
    ("repro.telemetry.provenance", "ProvenanceRecorder", "summary",
     "provenance"),
    ("repro.secpert.secpert", "Secpert", "__init__", "secpert"),
    ("repro.secpert.secpert", "Secpert", "analyze", "secpert"),
    ("repro.cache.digest", None, "run_key", "cache"),
    ("repro.cache.digest", None, "workload_key", "cache"),
    ("repro.cache.digest", None, "submission_key", "cache"),
    ("repro.cache.store", "VerdictCache", "lookup", "cache"),
    ("repro.cache.store", "VerdictCache", "store", "cache"),
    ("repro.cache.store", "VerdictCache", "store_report", "cache"),
    ("repro.fleet.engine", None, "run_fleet", "fleet"),
    ("repro.fleet.engine", None, "cluster_tasks", "fleet"),
    ("repro.fleet.worker", None, "worker_main", "fleet"),
    ("repro.serve.server", "ServeDaemon", "_inspect_submission", "serve"),
    ("repro.serve.server", "ServeDaemon", "_enqueue_hit", "serve"),
    ("repro.serve.server", "ServeDaemon", "_store_result", "serve"),
    ("repro.serve.supervisor", "Supervisor", "try_submit", "serve"),
    ("repro.serve.supervisor", "Supervisor", "_handle_message", "serve"),
    ("repro.serve.protocol", None, "encode_event", "serve"),
    ("repro.serve.protocol", None, "decode_line", "serve"),
    ("repro.serve.worker", None, "execute_submission", "serve"),
    # A serve worker idles in its job loop between submissions, so its
    # entry point marks the end of the process only and is no span.
    ("repro.serve.worker", None, "serve_worker_main", None),
)

#: Entry points of forked worker processes: when one returns, the child
#: writes its spans (the parent then merges the files).
WORKER_ENTRIES = frozenset({"worker_main", "serve_worker_main"})


def _display(cls: Optional[str], attr: str) -> str:
    return f"{cls}.{attr}" if cls else attr


class Tracer:
    """Per-process span table: totals for every span, a sample verbatim."""

    def __init__(self, out_dir: Optional[Path] = None) -> None:
        self.out_dir = out_dir
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span (the at-fork hook calls this in children)."""
        self.pid = os.getpid()
        self.epoch = time.perf_counter()
        #: name -> [layer, calls, total seconds, self seconds]
        self.totals: Dict[str, list] = {}
        #: (id, parent id, name, layer, start, end, thread id)
        self.spans: List[tuple] = []
        self.kept: Dict[str, int] = {}
        #: Run-level facts read off live objects (see _observe_run).
        self.facts: Dict[str, float] = {}
        self._local = threading.local()
        # A fork while another thread held the lock would leave the
        # child's copy locked for good.
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, frame: list, end: float) -> None:
        span_id, parent, name, layer, start, children = frame
        duration = end - start
        with self._lock:
            row = self.totals.get(name)
            if row is None:
                row = self.totals[name] = [layer, 0, 0.0, 0.0]
            row[1] += 1
            row[2] += duration
            row[3] += duration - children
            kept = self.kept.get(name, 0)
            if kept < KEEP_PER_NAME:
                self.kept[name] = kept + 1
                self.spans.append((
                    span_id, parent, name, layer,
                    start - self.epoch, end - self.epoch,
                    threading.get_ident(),
                ))

    def wrap(self, fn: Callable, name: str, layer: Optional[str]) -> Callable:
        tracer = self
        ids = self._ids

        if layer is None:
            @functools.wraps(fn)
            def entry(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.dump()

            return entry

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [
                next(ids), stack[-1][0] if stack else None,
                name, layer, time.perf_counter(), 0.0,
            ]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][5] += end - frame[4]
                tracer._close(frame, end)
                if name == "HTH.run":
                    tracer._observe_run(args[0])
                elif name in WORKER_ENTRIES:
                    tracer.dump()

        return traced

    def _observe_run(self, hth) -> None:
        """Fold one finished machine's fast-path and interner counts."""
        harrier = hth.harrier
        facts = self.facts
        facts["fastpath_blocks"] = (
            facts.get("fastpath_blocks", 0) + harrier.fastpath_blocks
        )
        facts["slowpath_blocks"] = (
            facts.get("slowpath_blocks", 0) + harrier.slowpath_blocks
        )
        interner = getattr(harrier.dataflow, "interner", None)
        if interner is not None:
            facts["interned_tagsets"] = max(
                facts.get("interned_tagsets", 0), len(interner)
            )

    # -- installation ------------------------------------------------------
    def install(self) -> "Tracer":
        import importlib

        for module_name, cls_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            name = _display(cls_name, attr)
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, layer))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name, layer)
            for other in list(sys.modules.values()):
                if getattr(other, attr, None) is original:
                    self._undo.append((other, attr, original))
                    setattr(other, attr, traced)
        os.register_at_fork(after_in_child=self.reset)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """This process's spans; ``wall`` runs from install (or fork)."""
        with self._lock:
            return {
                "pid": self.pid,
                "wall": time.perf_counter() - self.epoch,
                "totals": {k: list(v) for k, v in self.totals.items()},
                "facts": dict(self.facts),
                "spans": [
                    dict(zip(
                        ("id", "parent", "name", "layer", "start", "end",
                         "thread"),
                        span,
                    ))
                    for span in self.spans
                ],
            }

    def dump(self) -> None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.json``."""
        if self.out_dir is None:
            return
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))


def load_dumps(out_dir: Path) -> List[Dict[str, object]]:
    """Every span file a child process wrote into ``out_dir``."""
    return [
        json.loads(path.read_text())
        for path in sorted(out_dir.glob("spans-*.json"))
    ]


def merge_totals(parts) -> Dict[str, list]:
    """Sum per-name totals across processes."""
    merged: Dict[str, list] = {}
    for totals in parts:
        for name, (layer, calls, total, self_s) in totals.items():
            row = merged.setdefault(name, [layer, 0, 0.0, 0.0])
            row[1] += calls
            row[2] += total
            row[3] += self_s
    return merged


def layer_self_times(totals: Dict[str, list]) -> Dict[str, float]:
    """Self seconds per layer."""
    layers: Dict[str, float] = {}
    for layer, _calls, _total, self_s in totals.values():
        layers[layer] = layers.get(layer, 0.0) + self_s
    return layers
