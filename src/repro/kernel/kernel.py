"""The simulated kernel: process table, scheduler, syscall servicing.

The kernel is intentionally monitor-agnostic — every observable event goes
through a :class:`KernelHooks` instance, and Harrier is just one such
implementation.  Running with :class:`NullHooks` gives the "native
execution" baseline of the performance study (paper section 9).

Virtual time: the clock advances one tick per executed instruction, and
jumps forward when every live process is sleeping or waiting on a scheduled
network event (so ``sleep``-heavy workloads like the "Infrequent execve"
micro-benchmark finish instantly in real time).

Scheduling: round robin, one quantum per runnable process per pass.  A
process that nothing else could preempt — every other process has
exited, the network has nothing scheduled and no fault injector draws
per-quantum jitter — runs a slice of :data:`SLICE_QUANTA` quanta
instead.  Those extra pass boundaries would have done nothing but pick
the same process again, so the instruction stream and virtual time are
the same; only fewer blocks are cut at a quantum end.  A serviced
syscall (which may fork, sleep, block or exit) cuts the slice back to
the next boundary of the one-quantum schedule, from which the
scheduler decides as it would have per quantum.

Execution: a slice runs the process's translated blocks
(``repro.isa.translate``), one cache lookup per block entry.  A block
that heads a loop trace (``repro.isa.blockjit``) and whose whole
iteration fits the remaining budget runs the loop instead, whole
iterations at a time, and the trace's block entries are counted as
cache hits; what is left of the budget runs block by block, so the
budget is never overshot and tick interleaving is the same.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.isa import blockjit
from repro.isa.cpu import CPU
from repro.isa.image import Image
from repro.isa.memory import FlatMemory, MemoryFault
from repro.isa.translate import (
    EXIT_BUDGET as BLOCK_BUDGET,
    EXIT_CONTINUE as BLOCK_CONTINUE,
    EXIT_HALT as BLOCK_HALT,
    EXIT_SYSCALL as BLOCK_SYSCALL,
)
from repro.isa.registers import SYSCALL_ARG_REGISTERS
from repro.kernel.console import Console
from repro.kernel.errors import ENOENT, ENOEXEC, EACCES, WouldBlock
from repro.kernel.filesystem import FileSystem, NodeKind
from repro.kernel.hooks import KernelHooks, NullHooks
from repro.kernel.loader import Loader, LoadResult
from repro.kernel.network import Network
from repro.kernel.process import (
    OpenFile,
    PendingSyscall,
    Process,
    ProcessState,
    ResourceKind,
)
from repro.kernel.syscalls import NO_RESULT, SYS_RESOLVE, SyscallTable
from repro.telemetry import (
    CATEGORY_PROCESS,
    CATEGORY_RUN,
    CATEGORY_SYSCALL,
    Telemetry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faultinject.injector import FaultInjector
    from repro.telemetry.spans import Span

#: Process.meta key holding the process's open telemetry span.
_PROC_SPAN_KEY = "telemetry.span"

#: ``blockjit.TRACE_THRESHOLD`` when no loop trace may form.
_NEVER = float("inf")

#: Quanta in the slice of a process nothing else could preempt.  On the
#: section 9 long-guest run 8 already gives most of the gain of 64 (see
#: docs/performance.md) and keeps the watchdog's overshoot small.
SLICE_QUANTA = 8

#: Exit codes for abnormal termination.
EXIT_KILLED_BY_MONITOR = 137   # 128 + SIGKILL
EXIT_FAULT = 139               # 128 + SIGSEGV


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :meth:`Kernel.run` call.

    ``reason`` is one of ``'all-exited'`` (every process finished),
    ``'max-ticks'`` (virtual-time budget exhausted), ``'deadlock'`` (live
    processes but no event can ever wake them), or ``'watchdog'`` (the
    wall-clock limit passed to :meth:`Kernel.run` expired — a runaway
    guest was converted into a clean result instead of a hang).
    """

    reason: str
    ticks: int
    instructions: int
    exit_codes: Dict[int, Optional[int]] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.reason == "all-exited"


class Kernel:
    """A single simulated machine."""

    def __init__(
        self,
        hooks: Optional[KernelHooks] = None,
        libraries: Sequence[Image] = (),
        quantum: int = 200,
        fault_injector: Optional["FaultInjector"] = None,
        telemetry: Optional[Telemetry] = None,
        block_cache_store=None,
    ) -> None:
        self.hooks = hooks or NullHooks()
        #: Optional deterministic chaos source (see repro.faultinject).
        self.fault_injector = fault_injector
        #: Observability hub (see repro.telemetry).  A disabled hub wires
        #: the NullSink, so the guards below stay on the cheap path.
        self.telemetry = telemetry if telemetry is not None else (
            Telemetry.disabled()
        )
        self.tracer = self.telemetry.tracer
        #: The syscall span currently being serviced (analysis spans from
        #: Harrier attach themselves under it).
        self.current_syscall_span: Optional["Span"] = None
        if self.telemetry.is_enabled:
            m = self.telemetry.metrics
            self._metrics = m
            self._c_instructions = m.counter("cpu_instructions_total")
            self._c_quanta = m.counter("cpu_quanta_total")
            self._h_quantum = m.histogram("cpu_ticks_per_quantum")
            self._c_cpu_faults = m.counter("cpu_faults_total")
            self._c_fs = m.counter("kernel_fs_ops_total")
            self._c_net = m.counter("kernel_net_ops_total")
            self._c_injected = m.counter("kernel_faults_injected_total")
            self._c_spawned = m.counter("kernel_processes_spawned_total")
            self._c_exited = m.counter("kernel_process_exits_total")
            self._c_bc_flushes = m.counter("blockcache_flushes_total")
            self._syscall_counters: Dict[int, object] = {}
        else:
            self._metrics = None
        self.fs = FileSystem()
        self.network = Network()
        self.console = Console()
        self.loader = Loader(
            libraries,
            relocated=(
                block_cache_store.relocated
                if block_cache_store is not None else None
            ),
        )
        self.syscalls = SyscallTable(self)
        self.procs: Dict[int, Process] = {}
        self.binaries: Dict[str, Image] = {}
        self.now = 0
        self.instructions = 0
        self.quantum = quantum
        self._next_pid = 1
        self._fault_log: List[Tuple[int, str]] = []
        #: One BlockCache per main-executable image, keyed by identity and
        #: shared by every process running that image (fork included).
        self._block_caches: Dict[int, Tuple[Image, object]] = {}
        #: Optional cross-run warm store (``repro.harrier.blockcache
        #: .BlockCacheStore``, owned by an ``EngineCache``): caches for
        #: identical code layouts are reused instead of retranslated.
        self._block_cache_store = block_cache_store
        #: Times a process's cache was invalidated (execve swaps images).
        self.block_cache_flushes = 0

    # -- setup -----------------------------------------------------------------
    def register_binary(self, image: Image, path: Optional[str] = None) -> str:
        """Make an image available for spawn/execve under ``path``."""
        path = path or image.name
        self.binaries[path] = image
        if not self.fs.exists(path):
            self.fs.create_file(path, data=b"\x7fEXE" + path.encode(),
                                mode=0o755)
        return path

    def write_hosts_file(self) -> None:
        """Materialize /etc/hosts from the DNS table (call after peers are
        registered so gethostbyname's backing store is visible)."""
        self.fs.write_text("/etc/hosts", self.network.hosts_file_text())

    # -- block translation cache ------------------------------------------------
    def _block_cache_for(self, image: Image, load: LoadResult) -> object:
        """The shared cache for ``image``, created on first use.

        The loader's placement is deterministic per image (same base
        addresses, same libraries), so every process running the same
        image sees identical code at identical pcs and one cache serves
        them all.  Block cutting stops at every image's BB leaders so a
        later entry at a leader always lands on a cache key.  With a
        warm store, a new layout shares its libraries' plan tables with
        every other layout mapping the same relocated library text.
        """
        image_map = load.image_map
        entry = self._block_caches.get(id(image))
        if entry is not None and entry[0] is image:
            return entry[1]
        # Imported lazily: repro.harrier pulls in the monitor stack, which
        # imports this module.
        from repro.harrier.blockcache import BlockCache

        store = self._block_cache_store
        if store is not None:
            # Exact layout identity: the loader is deterministic, so two
            # runs whose images share text tuples and bases see the same
            # code at the same pcs — the only condition under which a
            # translated plan may be reused (see BlockCacheStore).
            key = (
                image.name,
                id(image.text),
                tuple(
                    (li.image.name, li.base, id(li.image.text))
                    for li in image_map
                ),
            )
            cache = store.get(key)
            if cache is not None:
                cache.bind_metrics(self._metrics)
                self._block_caches[id(image)] = (image, cache)
                return cache
        leaders = set()
        libraries = []
        for loaded, text in zip(image_map, load.texts):
            leaders.update(loaded.abs_bb_leaders())
            if store is not None and not loaded.is_app:
                libraries.append((
                    loaded.text_start,
                    loaded.text_end,
                    store.library_plans(loaded.name, loaded.base, text),
                ))
        cache = BlockCache(
            leaders=frozenset(leaders),
            metrics=self._metrics,
            libraries=libraries,
        )
        if store is not None:
            store.put(
                key, cache, pins=tuple(li.image for li in image_map)
            )
        self._block_caches[id(image)] = (image, cache)
        return cache

    # -- process lifecycle ---------------------------------------------------
    def spawn(
        self,
        program: Union[str, Image],
        argv: Optional[Sequence[str]] = None,
        env: Optional[Dict[str, str]] = None,
    ) -> Process:
        """Create a process running ``program`` (a registered path or an
        image, which gets registered under its own name)."""
        if isinstance(program, Image):
            path = self.register_binary(program)
            image = program
        else:
            path = program
            image = self.binaries.get(path)
            if image is None:
                raise KeyError(f"no binary registered at {path!r}")
        argv = list(argv) if argv is not None else [path]
        env = dict(env) if env is not None else {}

        memory = FlatMemory()
        load = self.loader.load(memory, image, argv, env)
        cpu = CPU(memory, entry=load.entry)
        cpu.regs.set("esp", load.initial_sp)
        proc = Process(
            pid=self._next_pid,
            ppid=0,
            memory=memory,
            cpu=cpu,
            command=path,
            argv=argv,
            env=env,
            start_time=self.now,
        )
        self._next_pid += 1
        proc.image_map = load.image_map
        proc.brk = load.heap_base
        proc.block_cache = self._block_cache_for(image, load)
        self._install_stdio(proc)
        self.procs[proc.pid] = proc
        self._announce_load(proc, load)
        self.hooks.on_process_start(proc)
        self._telemetry_process_start(proc)
        return proc

    def _telemetry_process_start(self, proc: Process) -> None:
        if self._metrics is not None:
            self._c_spawned.inc()
        if self.tracer is not None:
            proc.meta[_PROC_SPAN_KEY] = self.tracer.start(
                f"pid{proc.pid} {proc.command}",
                CATEGORY_PROCESS,
                self.now,
                tid=proc.pid,
                command=proc.command,
            )

    def _install_stdio(self, proc: Process) -> None:
        proc.install_fd(
            OpenFile(ResourceKind.CONSOLE, "STDIN", console_role="stdin"),
            fd=0,
        )
        proc.install_fd(
            OpenFile(ResourceKind.CONSOLE, "STDOUT", console_role="stdout"),
            fd=1,
        )
        proc.install_fd(
            OpenFile(ResourceKind.CONSOLE, "STDERR", console_role="stderr"),
            fd=2,
        )

    def _announce_load(self, proc: Process, load: LoadResult) -> None:
        for loaded in load.image_map:
            self.hooks.on_image_load(proc, loaded)
        start, end = load.initial_stack_range
        self.hooks.on_initial_stack(proc, start, end)

    def fork_process(self, parent: Process) -> Process:
        memory = parent.memory.copy()
        cpu = parent.cpu.copy(memory)
        cpu.regs.set("eax", 0)  # child's fork() return value
        child = Process(
            pid=self._next_pid,
            ppid=parent.pid,
            memory=memory,
            cpu=cpu,
            command=parent.command,
            argv=parent.argv,
            env=parent.env,
            start_time=self.now,
        )
        self._next_pid += 1
        child.image_map = parent.image_map
        # Translated blocks are immutable and the address space layout is
        # copied verbatim, so the child shares the parent's cache.
        child.block_cache = parent.block_cache
        child.brk = parent.brk
        child.next_fd = parent.next_fd
        for fd, open_file in parent.fds.items():
            open_file.refcount += 1
            child.fds[fd] = open_file
        self.procs[child.pid] = child
        self.hooks.on_fork(parent, child)
        self.hooks.on_process_start(child)
        self._telemetry_process_start(child)
        return child

    def exec_process(
        self,
        proc: Process,
        path: str,
        argv: Sequence[str],
        env: Dict[str, str],
    ) -> int:
        """Replace ``proc``'s image.  Returns 0 or a negative errno."""
        image = self.binaries.get(path)
        if image is None:
            node = self.fs.lookup(path)
            if node is None:
                return -ENOENT
            if node.kind is not NodeKind.FILE:
                return -EACCES
            if not node.is_executable():
                return -EACCES
            return -ENOEXEC  # a file, executable, but not a real program
        self.hooks.on_exec(proc, path)
        memory = FlatMemory()
        load = self.loader.load(memory, image, list(argv), dict(env))
        cpu = CPU(memory, entry=load.entry)
        cpu.regs.set("esp", load.initial_sp)
        proc.memory = memory
        proc.cpu = cpu
        proc.command = path
        proc.argv = list(argv)
        proc.env = dict(env)
        proc.image_map = load.image_map
        proc.brk = load.heap_base
        proc.start_time = self.now
        # The old image's translations are invalid for the new address
        # space: swap to the new image's (shared) cache.  Counted as a
        # flush — this is the "Infrequent execve" cost of the paper's
        # Table 8 in code-cache terms.
        proc.block_cache = self._block_cache_for(image, load)
        self.block_cache_flushes += 1
        if self._metrics is not None:
            self._c_bc_flushes.inc()
        self._announce_load(proc, load)
        return 0

    def exit_process(self, proc: Process, code: int) -> None:
        if proc.state is ProcessState.EXITED:
            return
        proc.state = ProcessState.EXITED
        proc.exit_code = code
        for fd in list(proc.fds):
            open_file = proc.remove_fd(fd)
            if open_file is not None:
                self.release_open_file(open_file)
        self.hooks.on_process_exit(proc, code)
        if self._metrics is not None:
            self._c_exited.inc()
        if self.tracer is not None:
            span = proc.meta.pop(_PROC_SPAN_KEY, None)
            if span is not None:
                self.tracer.end(span, self.now, exit_code=code)

    def kill(self, proc: Process, code: int, by_monitor: bool = False) -> None:
        if by_monitor:
            proc.killed_by_monitor = True
        self.exit_process(proc, code)

    def release_open_file(self, open_file: OpenFile) -> None:
        """Called when an fd referencing this description was closed."""
        if open_file.refcount > 0:
            return
        if open_file.kind is ResourceKind.FIFO and open_file.node is not None:
            if open_file.readable():
                open_file.node.fifo_readers -= 1
            if open_file.writable():
                open_file.node.fifo_writers -= 1
        if open_file.connection is not None:
            open_file.connection.close()

    # -- queries -----------------------------------------------------------------
    def live_processes(self) -> List[Process]:
        return [p for p in self.procs.values() if p.alive()]

    def faults(self) -> List[Tuple[int, str]]:
        return list(self._fault_log)

    # -- scheduler ---------------------------------------------------------------
    def run(
        self,
        max_ticks: int = 5_000_000,
        wall_timeout: Optional[float] = None,
    ) -> RunResult:
        """Round-robin schedule until everything exits (or deadlock/budget).

        ``wall_timeout`` (seconds of real time) arms a watchdog: a guest
        that outlives it yields a ``'watchdog'`` result instead of hanging
        the caller.  Checked once per scheduler pass, so the overshoot is
        at most one quantum per runnable process, or one slice of
        :data:`SLICE_QUANTA` quanta when a process runs alone.
        """
        tracer = self.tracer
        if tracer is None:
            return self._run_loop(max_ticks, wall_timeout)
        run_span = tracer.start("kernel.run", CATEGORY_RUN, self.now)
        try:
            return self._run_loop(max_ticks, wall_timeout)
        finally:
            # Close any process spans the run left open (max-ticks,
            # deadlock) so they export; then the run span itself.
            for proc in self.procs.values():
                span = proc.meta.pop(_PROC_SPAN_KEY, None)
                if span is not None:
                    tracer.end(span, self.now, still_running=True)
            tracer.end(run_span, self.now, instructions=self.instructions)

    def _run_loop(
        self,
        max_ticks: int,
        wall_timeout: Optional[float],
    ) -> RunResult:
        deadline = self.now + max_ticks
        wall_deadline = (
            _time.monotonic() + wall_timeout
            if wall_timeout is not None else None
        )
        while self.now < deadline:
            if (wall_deadline is not None
                    and _time.monotonic() >= wall_deadline):
                return self._result("watchdog")
            self.network.deliver_due(self.now)
            self._wake_sleepers()
            self._retry_blocked()
            runnable = [
                p for p in self.procs.values()
                if p.state is ProcessState.RUNNABLE
            ]
            if not runnable:
                live = self.live_processes()
                if not live:
                    return self._result("all-exited")
                if not self._advance_idle_clock(live):
                    return self._result("deadlock")
                continue
            for proc in runnable:
                if proc.state is ProcessState.RUNNABLE:
                    self._run_quantum(proc, deadline)
                if self.now >= deadline:
                    break
        return self._result("max-ticks")

    def _result(self, reason: str) -> RunResult:
        return RunResult(
            reason=reason,
            ticks=self.now,
            instructions=self.instructions,
            exit_codes={p.pid: p.exit_code for p in self.procs.values()},
        )

    def _wake_sleepers(self) -> None:
        for proc in self.procs.values():
            if (
                proc.state is ProcessState.SLEEPING
                and proc.wake_time <= self.now
            ):
                proc.state = ProcessState.RUNNABLE

    def _advance_idle_clock(self, live: List[Process]) -> bool:
        """Jump the clock to the next wake/network event; False if none."""
        candidates: List[int] = []
        for proc in live:
            if proc.state is ProcessState.SLEEPING:
                candidates.append(proc.wake_time)
        event_time = self.network.next_event_time()
        if event_time is not None:
            candidates.append(event_time)
        if not candidates:
            return False
        target = min(candidates)
        if target <= self.now:
            # The pending event is already due but undeliverable (e.g. a
            # scheduled connect with no listener) — advancing time cannot
            # make progress.
            return False
        self.now = target
        return True

    def _run_quantum(self, proc: Process, deadline: int) -> None:
        if self._metrics is None:
            self._exec_quantum(proc, deadline)
            return
        start = self.instructions
        try:
            self._exec_quantum(proc, deadline)
        finally:
            executed = self.instructions - start
            self._c_quanta.inc()
            if executed:
                self._c_instructions.inc(executed)
                self._h_quantum.observe(executed)

    def _slice_quanta(self, proc: Process) -> int:
        """Quanta ``proc`` may run before the next scheduler pass:
        :data:`SLICE_QUANTA` when no pass boundary could do anything
        but pick it again, else one."""
        if (self.fault_injector is not None
                or self.network.next_event_time() is not None):
            return 1
        for other in self.procs.values():
            if other is not proc and other.state is not ProcessState.EXITED:
                return 1
        return SLICE_QUANTA

    def _exec_quantum(self, proc: Process, deadline: int) -> None:
        quantum = self.quantum
        if self.fault_injector is not None:
            quantum = self.fault_injector.quantum(quantum)
        budget = quantum * self._slice_quanta(proc)
        hooks = self.hooks
        # A fused block instrumented for the hooks does their per-block
        # work itself and returns no record on a plain exit; so does a
        # loop trace, which only ever forms for an instrumentation.
        inst = hooks.block_instrumentation
        monitor = hooks.block_context(proc) if inst is not None else None
        tracing = blockjit.TRACE_THRESHOLD != _NEVER
        while budget > 0:
            if proc.state is not ProcessState.RUNNABLE or self.now >= deadline:
                return
            # Re-read per iteration: a syscall may have execve'd into a
            # different image (new cpu, new cache).
            cache = proc.block_cache
            cpu = proc.cpu
            try:
                plan = cache.lookup(cpu.memory, cpu.pc)
            except MemoryFault as fault:
                # An unmapped fetch halts the CPU and faults with the
                # fetch message, pc unchanged.
                cpu.halted = True
                self._fault_log.append((proc.pid, str(fault)))
                if self._metrics is not None:
                    self._c_cpu_faults.inc()
                self.exit_process(proc, EXIT_FAULT)
                return
            limit = deadline - self.now
            if budget < limit:
                limit = budget
            trace = plan.trace
            if (trace is not None and trace.cost <= limit
                    and plan.trace_for is inst):
                # Whole iterations of the loop this block heads; the
                # rest of the budget goes block by block, below.
                executed, entries = trace.run(plan, cpu, monitor, limit)
                self.now += executed
                self.instructions += executed
                budget -= executed
                cache.count_hits(entries - 1)
                continue
            rec = plan.execute(cpu, limit, inst, monitor)
            if rec is None:
                executed = plan.length
                self.now += executed
                self.instructions += executed
                budget -= executed
                if tracing and plan.trace_for is not inst:
                    self._note_hot(proc, plan, inst)
                continue
            executed = rec.executed
            self.now += executed
            self.instructions += executed
            budget -= executed
            hooks.on_block(proc, rec)
            kind = rec.kind
            if kind == BLOCK_CONTINUE or kind == BLOCK_BUDGET:
                continue
            if kind == BLOCK_SYSCALL:
                self._service_syscall(proc)
                # End the slice where the quantum holding the call ends:
                # from there on the scheduler decides as per quantum.
                budget %= quantum
                if inst is not None:
                    # The call (an execve, say) may have changed what
                    # the hooks keep for this process.
                    monitor = hooks.block_context(proc)
            elif kind == BLOCK_HALT:
                self._fault_log.append((proc.pid, "HLT executed"))
                self.exit_process(proc, EXIT_FAULT)
                return
            else:  # a fault (translate.EXIT_FAULT)
                self._fault_log.append((proc.pid, str(rec.fault)))
                if self._metrics is not None:
                    self._c_cpu_faults.inc()
                self.exit_process(proc, EXIT_FAULT)
                return

    @staticmethod
    def _note_hot(proc: Process, plan, inst) -> None:
        """Count a plain exit of ``plan``'s fused function; at
        ``blockjit.TRACE_THRESHOLD`` full executions, try once (per
        instrumentation) to make it the head of a loop trace."""
        if plan.trace_for is blockjit.JOINED:
            return
        plan.runs += 1
        if plan.runs < blockjit.TRACE_THRESHOLD:
            return
        pc = plan.start
        cache = proc.block_cache
        plans = cache.plans
        for start, end, shared in cache.libraries:
            if start <= pc < end:
                plans = shared  # a cycle of shared plans only
        lo = hi = pc
        for loaded in proc.image_map:
            if loaded.text_start <= pc < loaded.text_end:
                lo, hi = loaded.text_start, loaded.text_end
        blockjit.form_trace(plan, plans, lo, hi, inst)

    # -- syscall plumbing ---------------------------------------------------------
    def _service_syscall(self, proc: Process) -> None:
        regs = proc.cpu.regs
        sysno = regs.get("eax")
        args = tuple(regs.get(r) for r in SYSCALL_ARG_REGISTERS)
        info = self.syscalls.describe(proc, sysno, args)
        name = str(info.get("name", sysno))
        if self._metrics is not None:
            counter = self._syscall_counters.get(sysno)
            if counter is None:
                counter = self._metrics.counter(
                    "kernel_syscalls_total", name=name
                )
                self._syscall_counters[sysno] = counter
            counter.inc()
        span = None
        if self.tracer is not None:
            span = self.tracer.start(
                name,
                CATEGORY_SYSCALL,
                self.now,
                parent=proc.meta.get(_PROC_SPAN_KEY),
                tid=proc.pid,
                sysno=sysno,
            )
            self.current_syscall_span = span
        try:
            allowed = self.hooks.on_syscall_pre(proc, sysno, args, info)
            if not allowed:
                self.kill(proc, EXIT_KILLED_BY_MONITOR, by_monitor=True)
                if span is not None:
                    self.tracer.end(span, self.now, vetoed=True)
                return
            self._attempt_syscall(proc, sysno, args, info)
        finally:
            if span is not None:
                self.current_syscall_span = None
                if not span.finished:
                    blocked = proc.state is ProcessState.BLOCKED
                    self.tracer.end(span, self.now, blocked=blocked)

    def _attempt_syscall(
        self,
        proc: Process,
        sysno: int,
        args: Tuple[int, int, int, int, int],
        info: Dict[str, object],
    ) -> None:
        if self._metrics is not None:
            if "path" in info:
                self._c_fs.inc()
            if "socketcall" in info or sysno == SYS_RESOLVE:
                self._c_net.inc()
        try:
            injected = None
            if self.fault_injector is not None:
                injected = self.fault_injector.before_syscall(
                    self.now, proc, sysno, args, info
                )
            if injected is not None:
                # The monitor saw the attempt (pre-event already fired);
                # the injected errno replaces the handler's execution.
                result, extra = injected, {"injected_fault": True}
                if self._metrics is not None:
                    self._c_injected.inc()
            else:
                result, extra = self.syscalls.dispatch(
                    proc, sysno, args, info
                )
        except WouldBlock as block:
            proc.state = ProcessState.BLOCKED
            proc.pending = PendingSyscall(sysno, args)
            proc.meta["pending_info"] = info
            proc.meta["pending_reason"] = block.reason
            return
        proc.pending = None
        merged = {**info, **extra}
        if result is not NO_RESULT and proc.alive():
            proc.cpu.regs.set("eax", result)
        self.hooks.on_syscall_post(
            proc, sysno, args, 0 if result is NO_RESULT else result, merged
        )

    def _retry_blocked(self) -> None:
        for proc in list(self.procs.values()):
            if proc.state is not ProcessState.BLOCKED or proc.pending is None:
                continue
            pending = proc.pending
            info = proc.meta.get("pending_info", {})
            # Optimistically mark runnable; _attempt re-blocks on WouldBlock.
            proc.state = ProcessState.RUNNABLE
            span = None
            if self.tracer is not None:
                span = self.tracer.start(
                    str(info.get("name", pending.sysno)),
                    CATEGORY_SYSCALL,
                    self.now,
                    parent=proc.meta.get(_PROC_SPAN_KEY),
                    tid=proc.pid,
                    retry=True,
                )
                self.current_syscall_span = span
            try:
                self._attempt_syscall(proc, pending.sysno, pending.args, info)
            finally:
                if span is not None:
                    self.current_syscall_span = None
                    if not span.finished:
                        self.tracer.end(
                            span,
                            self.now,
                            blocked=proc.state is ProcessState.BLOCKED,
                        )
