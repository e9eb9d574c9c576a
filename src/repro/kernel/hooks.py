"""Monitor hook interface.

The kernel and CPU expose their observable events through this interface;
Harrier subclasses it.  The default implementation is a no-op, so running
without a monitor costs only the virtual calls (this is the "native" leg of
the performance evaluation, paper section 9).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.isa.blockjit import instrumentation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.translate import BlockRecord
    from repro.kernel.loader import LoadedImage
    from repro.kernel.process import Process


class KernelHooks:
    """Observation points in execution order."""

    #: What a hook does per block inside the block JIT's generated code
    #: (an :func:`repro.isa.blockjit.instrumentation` key).  None, the
    #: default, means "give me every record": :meth:`on_block` runs once
    #: per executed block.  The kernel reads it once per quantum.
    block_instrumentation: Optional[Tuple[str, ...]] = None

    def block_context(self, proc: "Process"):
        """The per-process context a block instrumented for this hook
        reads (a :class:`repro.isa.blockjit.MonitorContext`, or None
        when the instrumentation reads nothing).  Fetched once per
        quantum and again after each syscall, so it should be cached,
        not built, per call."""
        return None

    def on_process_start(self, proc: "Process") -> None:
        """A process began executing (after load or fork)."""

    def on_image_load(self, proc: "Process", loaded: "LoadedImage") -> None:
        """An image (executable or shared object) was mapped."""

    def on_initial_stack(
        self, proc: "Process", start: int, end: int
    ) -> None:
        """The loader wrote argc/argv/envp into [start, end)."""

    def on_block(self, proc: "Process", rec: "BlockRecord") -> None:
        """A translated basic block (or a prefix of one) finished.

        ``rec`` says how many instructions retired, why the block
        stopped, and which addresses it touched; the plan behind it
        carries the block's precomputed taint templates.

        A hook that declares a :attr:`block_instrumentation` is not
        called for a fused block that left through its plain
        fall-through or branch exit: the generated code did the
        declared work itself.  It still sees every other record —
        faults, syscalls, HLT, CALL/RET when the instrumentation keeps
        them (``RECORD_CALLS``), partial executions and blocks not yet
        fused.
        """

    def on_syscall_pre(
        self,
        proc: "Process",
        sysno: int,
        args: Tuple[int, int, int, int, int],
        info: Dict[str, object],
    ) -> bool:
        """About to execute a syscall.  ``info`` carries kernel-decoded
        facts about the call (path strings, fd resources, buffer layout)
        computed without side effects.  Return False to kill the process
        (the user chose not to let the suspicious call proceed)."""
        return True

    def on_syscall_post(
        self,
        proc: "Process",
        sysno: int,
        args: Tuple[int, int, int, int, int],
        result: int,
        info: Dict[str, object],
    ) -> None:
        """A syscall completed.  ``info`` carries kernel-computed facts
        (resource references, buffer addresses, byte counts, ...)."""

    def on_fork(self, parent: "Process", child: "Process") -> None:
        """fork/clone created ``child`` from ``parent``."""

    def on_exec(self, proc: "Process", path: str) -> None:
        """The process replaced its image via execve (about to reload)."""

    def on_process_exit(self, proc: "Process", code: int) -> None:
        """The process terminated."""


class NullHooks(KernelHooks):
    """Explicit no-op monitor (native execution): fused blocks do no
    monitor work and return no record on their plain exits."""

    block_instrumentation = instrumentation()


class CompositeHooks(KernelHooks):
    """Fan one hook stream out to several monitors (e.g. Harrier plus a
    baseline trace recorder).  A syscall proceeds only if every child
    allows it.  It declares no block instrumentation, so every child
    gets one :meth:`on_block` per executed block."""

    def __init__(self, children) -> None:
        self.children = list(children)

    def on_process_start(self, proc):
        for child in self.children:
            child.on_process_start(proc)

    def on_image_load(self, proc, loaded):
        for child in self.children:
            child.on_image_load(proc, loaded)

    def on_initial_stack(self, proc, start, end):
        for child in self.children:
            child.on_initial_stack(proc, start, end)

    def on_block(self, proc, rec):
        for child in self.children:
            child.on_block(proc, rec)

    def on_syscall_pre(self, proc, sysno, args, info):
        allowed = True
        for child in self.children:
            if not child.on_syscall_pre(proc, sysno, args, info):
                allowed = False
        return allowed

    def on_syscall_post(self, proc, sysno, args, result, info):
        for child in self.children:
            child.on_syscall_post(proc, sysno, args, result, info)

    def on_fork(self, parent, child_proc):
        for child in self.children:
            child.on_fork(parent, child_proc)

    def on_exec(self, proc, path):
        for child in self.children:
            child.on_exec(proc, path)

    def on_process_exit(self, proc, code):
        for child in self.children:
            child.on_process_exit(proc, code)
