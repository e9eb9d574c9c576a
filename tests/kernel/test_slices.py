"""Lone-process slices: a process nothing else could preempt runs
``SLICE_QUANTA`` quanta between scheduler passes.

The schedule is unchanged by construction (the skipped pass boundaries
would only have picked the same process again), so everything a run
shows must match one quantum per pass (``tests/oracles``
``one_quantum_per_pass``) and the reference interpreter, which keeps
one quantum per pass itself — except the counters of blocks cut short
at a quantum end, which slices exist to avoid.
"""

import contextlib
import time
from unittest import mock

import pytest

from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.faultinject import TRANSPARENT_PROFILE
from repro.isa import assemble
from repro.kernel.kernel import SLICE_QUANTA, Kernel
from repro.kernel.network import ConversationPeer
from repro.kernel.process import ProcessState
from repro.telemetry import Telemetry
from tests.harrier.test_blockcache_differential import (
    _all_workloads,
    _run_fingerprint,
)
from tests.oracles import one_quantum_per_pass, reference_interpreter
from tests.oracles.readers import cell_tags


@pytest.mark.parametrize("workload", _all_workloads())
def test_slices_are_indistinguishable_from_one_quantum_per_pass(workload):
    """Verdict, warnings with their evidence, events, clocks, shadow
    state and full-block counts are bit-identical; only prefix
    applications (blocks cut at a quantum end) may fall, and the
    provenance tokens of the blocks that replace prefix and suffix."""
    sliced = _run_fingerprint(workload)
    per_quantum = _run_fingerprint(workload, one_quantum_per_pass)
    counters = sliced.pop("counters")
    want = per_quantum.pop("counters")
    assert sliced == per_quantum
    for key in ("harrier.fastpath_blocks", "provenance.blocks_observed"):
        assert counters[key] == want[key], key
    assert (counters["harrier.slowpath_blocks"]
            <= want["harrier.slowpath_blocks"])


#: A hot loop that forks half-way; the child loops on three times as
#: long, so it runs alone (in slices) after the parent exits.
FORK_MIDWAY = """
main:
    mov ecx, 600
    mov esi, -1
loop:
    add edx, ecx
    cmp ecx, 300
    jnz next
    call fork
    mov esi, eax
next:
    sub ecx, 1
    cmp ecx, 0
    jnz loop
    cmp esi, 0
    jnz done
    mov ecx, 900
tail:
    add edx, ecx
    sub ecx, 1
    cmp ecx, 0
    jnz tail
done:
    call time
    mov edi, stamp
    store [edi], eax
    mov eax, 0
    ret
.data
stamp: .space 1
"""

#: A server that blocks in accept until a client scheduled on the
#: network dials in, then loops, connects out, and loops again.
CONNECTS = """
main:
    mov ebx, local
    call gethostbyname
    mov ecx, eax
    call socket
    mov esi, eax
    mov ebx, esi
    mov edx, 7000
    call bind_addr
    mov ebx, esi
    call listen
    mov ebx, esi
    call accept
    mov ebx, eax
    mov ecx, buf
    mov edx, 16
    call read
    mov ecx, 700
spin:
    add edx, ecx
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, remote
    call gethostbyname
    mov ecx, eax
    call socket
    mov esi, eax
    mov ebx, esi
    mov edx, 8000
    call connect_addr
    mov ebx, esi
    mov ecx, buf
    mov edx, 4
    call write
    mov ebx, esi
    mov ecx, buf
    mov edx, 16
    call read_line
    mov ecx, 700
spin2:
    add edx, ecx
    sub ecx, 1
    cmp ecx, 0
    jnz spin2
    mov eax, 0
    ret
.data
local: .asciz "LocalHost"
remote: .asciz "peer.example"
buf: .space 17
"""

#: A hot loop that sleeps mid-way, then loops again.
SLEEPS = """
main:
    mov edi, 3
round:
    mov ecx, 500
spin:
    add edx, ecx
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, 333
    call sleep
    call time
    add esi, eax
    sub edi, 1
    cmp edi, 0
    jnz round
    mov eax, 0
    ret
"""


def _connects_setup(hth):
    hth.network.add_peer("peer.example", 8000, lambda: ConversationPeer(
        "peer", replies=[b"pong\n"]))
    hth.network.schedule_connect(
        1500, "LocalHost", 7000, ConversationPeer(
            "client", opening=b"hello", close_when_done=False))


@contextlib.contextmanager
def _syscall_log(log):
    """Record ``(pid, tick, sysno)`` at every syscall the kernel services."""
    service = Kernel._service_syscall

    def spy(kernel, proc):
        log.append((proc.pid, kernel.now, proc.cpu.regs.get("eax")))
        return service(kernel, proc)

    with mock.patch.object(Kernel, "_service_syscall", spy):
        yield


def _run(source, quantum, oracle=contextlib.nullcontext, setup=None,
         max_ticks=None, **hth_kwargs):
    """The run's machine and everything observable about it, tick for
    tick: each syscall's pid and virtual time, the result, events,
    and every process's registers, memory and shadow."""
    log = []
    with oracle(), _syscall_log(log):
        hth = HTH(**hth_kwargs)
        hth.kernel.quantum = quantum
        if setup is not None:
            setup(hth)
        report = hth.run(assemble("/bin/slices", source),
                         max_ticks=max_ticks)
    procs = []
    for pid in sorted(hth.kernel.procs):
        proc = hth.kernel.procs[pid]
        shadow = hth.harrier.shadow(proc)
        procs.append((
            pid,
            proc.exit_code,
            dict(proc.cpu.regs._values),
            dict(proc.memory.cells),
            dict(shadow.bb_counts),
            shadow.regs.snapshot(),
            cell_tags(shadow.memory),
        ))
    return hth, {
        "syscalls": log,
        "result": report.result,
        "verdict": report.verdict,
        "warnings": [repr(w) for w in report.warnings],
        "events": [str(e) for e in report.events],
        "faults": report.faults,
        "procs": procs,
    }


def _quanta(hth):
    return hth.telemetry.metrics.total("cpu_quanta_total")


@pytest.mark.parametrize("quantum", (3, 8, 200))
@pytest.mark.parametrize("source,setup", (
    (FORK_MIDWAY, None),
    (CONNECTS, _connects_setup),
    (SLEEPS, None),
), ids=("fork", "connect", "sleep"))
def test_where_a_slice_must_stop(source, setup, quantum):
    """Fork, a scheduled connect, blocking and sleep all end or withhold
    a slice exactly where one quantum per pass would let the scheduler
    decide again."""
    sliced_hth, sliced = _run(source, quantum, setup=setup,
                              telemetry=Telemetry.enabled())
    _, interp = _run(source, quantum, reference_interpreter, setup=setup)
    assert sliced == interp
    assert sliced["result"].reason == "all-exited"
    per_quantum_hth, per_quantum = _run(
        source, quantum, one_quantum_per_pass, setup=setup,
        telemetry=Telemetry.enabled())
    assert per_quantum == interp
    # The lone stretches ran in slices: fewer scheduler passes.
    assert _quanta(sliced_hth) < _quanta(per_quantum_hth)


def test_a_sibling_or_a_pending_connect_withholds_slices():
    hth = HTH()
    kernel = hth.kernel
    proc = kernel.spawn(assemble("/bin/slices", SLEEPS))
    assert kernel._slice_quanta(proc) == SLICE_QUANTA
    sibling = kernel.fork_process(proc)
    for state in (ProcessState.RUNNABLE, ProcessState.SLEEPING,
                  ProcessState.BLOCKED):
        sibling.state = state
        assert kernel._slice_quanta(proc) == 1
    sibling.state = ProcessState.EXITED
    assert kernel._slice_quanta(proc) == SLICE_QUANTA
    _connects_setup(hth)
    assert kernel._slice_quanta(proc) == 1
    kernel.network._scheduled.clear()
    assert kernel._slice_quanta(proc) == SLICE_QUANTA
    with one_quantum_per_pass():
        assert kernel._slice_quanta(proc) == 1
    assert kernel._slice_quanta(proc) == SLICE_QUANTA


def test_a_fault_injector_keeps_one_quantum_per_pass():
    """Its jitter draws once per quantum: chaos seeds keep their
    schedule."""
    hth = HTH(options=RunOptions(fault_profile=TRANSPARENT_PROFILE,
                                 fault_seed=3))
    proc = hth.kernel.spawn(assemble("/bin/slices", SLEEPS))
    assert hth.kernel._slice_quanta(proc) == 1


SPIN = """
main:
loop:
    jmp loop
"""


def test_the_watchdog_stops_a_lone_spinning_guest_promptly():
    hth = HTH(options=RunOptions(max_ticks=10**12, wall_timeout=0.2))
    start = time.monotonic()
    report = hth.run(assemble("/bin/spin", SPIN))
    assert report.result.reason == "watchdog"
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("max_ticks", (1, 199, 1234,
                                       3 * SLICE_QUANTA * 200 + 7))
def test_max_ticks_stops_a_lone_loop_at_the_same_tick(max_ticks):
    _, sliced = _run(SPIN, 200, max_ticks=max_ticks)
    _, per_quantum = _run(SPIN, 200, one_quantum_per_pass,
                          max_ticks=max_ticks)
    _, interp = _run(SPIN, 200, reference_interpreter, max_ticks=max_ticks)
    assert sliced == per_quantum == interp
    assert sliced["result"].reason == "max-ticks"
    assert sliced["result"].ticks == max_ticks
