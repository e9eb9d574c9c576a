"""Harrier: the run-time monitor (paper section 7).

Harrier virtualizes the application (Figure 4): it receives every
architectural, OS, and library-level event from the simulated kernel
through the :class:`KernelHooks` interface and

* propagates multi-source taint per translated block (``InstructionDataFlow``),
* counts application basic-block executions (``CodeExecutionPatterns``),
* short-circuits name-translating library routines (``RoutineShortCircuit``),
* tags loaded binaries BINARY and the initial stack USER INPUT,
* generates semantic events at syscalls (``SyscallEventGenerator``) and
  forwards them to the analyzer (Secpert), pausing the process until the
  analysis — and, on a warning, the user's continue/kill decision — is in.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Optional, Tuple

from repro.harrier.analyzer import (
    DecisionPolicy,
    EventAnalyzer,
    always_continue,
)
from repro.harrier.bbfreq import CodeExecutionPatterns
from repro.harrier.config import HarrierConfig
from repro.harrier.dataflow import InstructionDataFlow
from repro.harrier.events import SecurityEvent
from repro.harrier.routines import RoutineShortCircuit
from repro.harrier.state import ProcessShadow
from repro.harrier.syscall_events import SyscallEventGenerator
from repro.isa import blockjit
from repro.kernel.hooks import KernelHooks
from repro.kernel.kernel import Kernel
from repro.kernel.loader import LoadedImage
from repro.kernel.process import Process
from repro.taint.tags import DataSource, TagSet
from repro.telemetry import CATEGORY_ANALYSIS
from repro.telemetry.provenance import ProvenanceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

_SHADOW_KEY = "harrier.shadow"
#: Process.meta key of the process's block-JIT monitor context.
_CONTEXT_KEY = "harrier.block_context"


@dataclass(frozen=True)
class MonitorFault:
    """A contained failure of the monitor's own analysis machinery.

    When a rule (or a whole analyzer) raises while processing an event,
    Harrier quarantines the failure instead of propagating it into the
    monitored run: the guest keeps executing, and this record — the
    ``MONITOR_FAULT`` warning — surfaces in the :class:`RunReport` so the
    degradation is visible rather than silent.
    """

    rule: str          # "MONITOR_FAULT" unless a specific rule is known
    error: str         # "ExceptionType: message"
    stage: str         # 'analyze' | 'decision'
    event: object = None

    def render(self) -> str:
        return f"Warning [MONITOR_FAULT/{self.stage}] {self.error}"

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return self.render()


class Harrier(KernelHooks):
    def __init__(
        self,
        analyzer: Optional[EventAnalyzer] = None,
        config: Optional[HarrierConfig] = None,
        decision: DecisionPolicy = always_continue,
        interner=None,
        provenance: bool = True,
    ) -> None:
        self.analyzer = analyzer or EventAnalyzer()
        self.config = config or HarrierConfig()
        self.decision = decision
        #: Cached (config is frozen): the per-block dispatch flags, so
        #: the on_block hot path loads slots instead of chasing the
        #: config dataclass per block.
        self._track_df = self.config.track_dataflow
        self._track_bb = self.config.track_bb_frequency
        self._short_circuit = self.config.short_circuit_routines
        self.dataflow = InstructionDataFlow(interner=interner)
        self.bbfreq = CodeExecutionPatterns()
        self.routines = RoutineShortCircuit(self.dataflow)
        #: The per-run evidence recorder (None when disabled — hot paths
        #: pay one cached None check).  HTH passes
        #: ``RunOptions.provenance`` here.
        self.provenance = ProvenanceRecorder() if provenance else None
        self._prov = self.provenance
        self.event_gen = SyscallEventGenerator(
            self.config, self.dataflow, self.bbfreq,
            provenance=self.provenance,
        )
        #: The on_block work a fused block does itself (see
        #: :attr:`block_instrumentation`): the config picks what is
        #: generated, so an ablation adds no runtime branch.
        parts = []
        if self._track_df:
            parts.append(blockjit.TAINT)
            if self._prov is not None:
                parts.append(blockjit.PROVENANCE)
            if self._short_circuit:
                parts.append(blockjit.RECORD_CALLS)
        if self._track_bb:
            parts.append(blockjit.BBFREQ)
        self._inline = blockjit.instrumentation(*parts)
        self.kernel: Optional[Kernel] = None
        #: Every event emitted, in order (when keep_event_log is set).
        #: Bounded by config.max_event_log: a deque(maxlen=cap) evicts the
        #: oldest entry in O(1) and every drop is counted in
        #: ``events_dropped``.
        self._events: Deque[SecurityEvent] = deque(
            maxlen=self.config.max_event_log
        )
        #: Events emitted to the analyzer, and those discarded because
        #: the bounded log was full.
        self.events_emitted: int = 0
        self.events_dropped: int = 0
        #: Block applications of a full block / of a prefix (a partial
        #: execution).
        self.fastpath_blocks: int = 0
        self.slowpath_blocks: int = 0
        #: (event, warning) pairs where the decision policy said "kill".
        self.kills: List[Tuple[SecurityEvent, object]] = []
        #: Contained analysis failures (see :class:`MonitorFault`).
        self.monitor_faults: List[MonitorFault] = []
        #: The hub's span tracer (attach_telemetry), or None.
        self._tracer = None

    @property
    def events(self) -> List[SecurityEvent]:
        """The (possibly capped) event log, oldest first."""
        return list(self._events)

    # -- wiring -------------------------------------------------------------
    def bind(self, kernel: Kernel) -> "Harrier":
        """Associate with the kernel whose hooks we implement."""
        self.kernel = kernel
        return self

    def attach_telemetry(self, telemetry: "Telemetry") -> "Harrier":
        """Wire the hub's span tracer (see :mod:`repro.telemetry`)."""
        self._tracer = telemetry.tracer
        return self

    @property
    def block_instrumentation(self):
        """:meth:`on_block`'s work, inlined into fused blocks."""
        return self._inline

    def block_context(self, proc: Process) -> blockjit.MonitorContext:
        """The process's context for inlined block work (built once)."""
        meta = proc.meta
        context = meta.get(_CONTEXT_KEY)
        if context is None:
            prov = self._prov
            context = meta[_CONTEXT_KEY] = blockjit.MonitorContext(
                self, self.shadow(proc), self.dataflow.install_applier,
                prov.seen_plans if prov is not None else None,
                prov.observe_block if prov is not None else None,
            )
        return context

    def shadow(self, proc: Process) -> ProcessShadow:
        """The per-process monitor state (one dict probe on the hot path)."""
        shadow = proc.meta.get(_SHADOW_KEY)
        if shadow is None:
            shadow = proc.meta[_SHADOW_KEY] = ProcessShadow()
        return shadow

    @property
    def _now(self) -> int:
        return self.kernel.now if self.kernel is not None else 0

    # -- loader events (sections 7.3.2 / 7.3.3) ------------------------------
    def on_image_load(self, proc: Process, loaded: LoadedImage) -> None:
        shadow = self.shadow(proc)
        image_name = loaded.name
        is_app = loaded.is_app and image_name not in self.config.trusted_images
        leaders = shadow.app_leaders if is_app else shadow.lib_leaders
        for addr in loaded.abs_bb_leaders():
            leaders[addr] = True
        for addr in range(loaded.text_start, loaded.text_end):
            shadow.code_image[addr] = loaded
        for symbol in self.config.short_circuit_symbols:
            addr = loaded.symbol_addr(symbol)
            if addr is not None:
                shadow.routine_addrs[addr] = symbol
        if self.config.track_dataflow:
            binary_tags = self.dataflow.binary_tag(image_name)
            shadow.memory.set_range(
                loaded.data_start,
                loaded.end - loaded.data_start,
                binary_tags,
            )
            if self._prov is not None:
                self._prov.record_source(
                    binary_tags, pid=proc.pid, tick=self._now,
                    resource=image_name, via="image_load",
                )

    def on_initial_stack(self, proc: Process, start: int, end: int) -> None:
        if not self.config.track_dataflow:
            return
        if self.config.complete_dataflow:
            tags = TagSet.of(DataSource.USER_INPUT)
        else:
            tags = self.dataflow.binary_tag(proc.command)
        self.shadow(proc).memory.set_range(start, end - start, tags)
        if self._prov is not None:
            self._prov.record_source(
                tags, pid=proc.pid, tick=self._now,
                resource=proc.command, via="initial_stack",
            )

    # -- per-block events (section 7.3.1 / 7.4 / 7.2) -------------------------
    def on_block(self, proc: Process, rec) -> None:
        """Observe one executed (prefix of a) translated block.

        A fused block that leaves through its plain exit does this work
        in its generated code instead (:attr:`block_instrumentation`),
        with the same appliers and counters; this method sees every
        other record.  The block's taint effects are applied in one
        call: the compiled
        summary applier of the block, or of the executed prefix when the
        budget expired or a fault stopped the block mid-way.  The
        routine short-circuit sees the record only when its terminator
        was a CALL/RET (those always end a block), and BB frequency is
        observed once at the block's entry pc — interior pcs are never
        leaders by construction of the translation cut.
        """
        executed = rec.executed
        if executed == 0:
            return
        # self.shadow(proc), inlined (hottest call site).
        meta = proc.meta
        shadow = meta.get(_SHADOW_KEY)
        if shadow is None:
            shadow = meta[_SHADOW_KEY] = ProcessShadow()
        plan = rec.plan
        if self._track_df:
            if executed == plan.length:
                self.fastpath_blocks += 1
                apply = plan.taint_apply
                if self._prov is not None:
                    self._prov.observe_block(plan)
            else:
                self.slowpath_blocks += 1
                prefixes = plan.prefix_apply
                apply = prefixes.get(executed) if prefixes else None
            (apply or self.dataflow.install_applier(plan, executed))(
                shadow, rec.holes
            )
            if self._short_circuit and (
                rec.call_target is not None or rec.ret_target is not None
            ):
                self.routines.on_step(proc, shadow, rec)
        if self._track_bb:
            pc = plan.start
            if pc in shadow.app_leaders:
                shadow.bb_counts[pc] = shadow.bb_counts.get(pc, 0) + 1
                shadow.last_app_bb = pc

    # -- syscall events (section 7.1) -----------------------------------------
    def on_syscall_pre(
        self,
        proc: Process,
        sysno: int,
        args: Tuple[int, int, int, int, int],
        info: Dict[str, object],
    ) -> bool:
        shadow = self.shadow(proc)
        events = self.event_gen.pre_events(
            proc, shadow, self._now, sysno, args, info
        )
        return self._dispatch(events)

    def on_syscall_post(
        self,
        proc: Process,
        sysno: int,
        args: Tuple[int, int, int, int, int],
        result: int,
        info: Dict[str, object],
    ) -> None:
        shadow = self.shadow(proc)
        events = self.event_gen.post_effects(
            proc, shadow, self._now, sysno, args, result, info
        )
        # Post events cannot veto (the call already happened) but still
        # feed the analysis and may warn.
        self._dispatch(events)

    def _dispatch(self, events: List[SecurityEvent]) -> bool:
        """Feed events to the analyzer; False means "kill the process".

        Veto semantics: the *first* kill decision terminates the process,
        so remaining events of the batch are not dispatched — they
        describe a syscall that will never execute.  Analysis failures
        are contained (see :class:`MonitorFault`): a crashing rule must
        not take down the monitored run.
        """
        tracer = self._tracer
        for event in events:
            self._log_event(event)
            span = None
            if tracer is not None:
                span = tracer.start(
                    f"analyze {getattr(event, 'call_name', event)}",
                    CATEGORY_ANALYSIS,
                    self._now,
                    parent=(
                        self.kernel.current_syscall_span
                        if self.kernel is not None else None
                    ),
                    tid=getattr(event, "pid", 0),
                )
            try:
                warnings = self.analyzer.analyze(event)
            except Exception as exc:  # noqa: BLE001 - containment boundary
                self._contain(event, exc, stage="analyze")
                if span is not None:
                    tracer.end(span, self._now, fault=True)
                continue
            if span is not None:
                tracer.end(span, self._now, warnings=len(warnings))
            for warning in warnings:
                try:
                    proceed = self.decision(warning)
                except Exception as exc:  # noqa: BLE001
                    self._contain(event, exc, stage="decision")
                    proceed = True
                if not proceed:
                    self.kills.append((event, warning))
                    return False
        return True

    def _log_event(self, event: SecurityEvent) -> None:
        if self._prov is not None:
            self._prov.observe_event(event)
        self.events_emitted += 1
        if not self.config.keep_event_log:
            return
        log = self._events
        if log.maxlen is not None and len(log) >= log.maxlen:
            # append below evicts the oldest entry (or is a no-op when
            # maxlen == 0); either way one event is lost.
            self.events_dropped += 1
        log.append(event)

    def _contain(self, event: SecurityEvent, exc: Exception,
                 stage: str) -> None:
        rule = getattr(exc, "rule_name", "MONITOR_FAULT")
        self.monitor_faults.append(
            MonitorFault(
                rule=str(rule),
                error=f"{type(exc).__name__}: {exc}",
                stage=stage,
                event=event,
            )
        )

    # -- end-of-run sampling ---------------------------------------------------
    def readings(self) -> Iterator[tuple]:
        """The monitor's counts, and its state footprint as gauges, in
        the shape :class:`repro.telemetry.Sampler` writes into a registry.

        Read once per run (cheap relative to the run itself): tainted
        shadow cells, live taint-set cardinality, and application
        basic-block totals across every process the kernel still knows.
        """
        yield "counter", "harrier_events_emitted_total", {}, self.events_emitted
        yield "counter", "harrier_events_dropped_total", {}, self.events_dropped
        if self.kills:
            yield "counter", "harrier_kills_total", {}, len(self.kills)
        for stage, count in Counter(f.stage for f in self.monitor_faults).items():
            yield "counter", "harrier_monitor_faults_total", {"stage": stage}, count
        if self._prov is not None:
            yield from self._prov.readings()
        if self.kernel is None:
            return
        tainted_cells = 0
        shadow_pages = 0
        tag_sets = set()
        max_cardinality = 0
        bb_executions = 0
        app_blocks = 0
        for proc in self.kernel.procs.values():
            shadow = proc.meta.get(_SHADOW_KEY)
            if shadow is None:
                continue
            page_stats = shadow.memory.page_stats()
            tainted_cells += page_stats["cells"]
            shadow_pages += page_stats["pages"]
            for _, tags in shadow.memory.live_cells():
                tag_sets.add(tags)
                if len(tags) > max_cardinality:
                    max_cardinality = len(tags)
            bb_executions += sum(shadow.bb_counts.values())
            app_blocks += len(shadow.bb_counts)
        yield "gauge", "harrier_tainted_memory_cells", {}, tainted_cells
        yield "gauge", "harrier_shadow_pages_live", {}, shadow_pages
        yield "gauge", "harrier_taint_sets_live", {}, len(tag_sets)
        yield "gauge", "harrier_taint_set_max_cardinality", {}, max_cardinality
        yield "gauge", "harrier_bb_executions", {}, bb_executions
        yield "gauge", "harrier_app_basic_blocks", {}, app_blocks
        yield "gauge", "harrier_fastpath_blocks", {}, self.fastpath_blocks
        yield "gauge", "harrier_slowpath_blocks", {}, self.slowpath_blocks

    # -- process lifecycle -------------------------------------------------------
    def on_fork(self, parent: Process, child: Process) -> None:
        parent_shadow = self.shadow(parent)
        child.meta[_SHADOW_KEY] = parent_shadow.copy_for_fork()

    def on_exec(self, proc: Process, path: str) -> None:
        self.shadow(proc).reset_for_exec()

