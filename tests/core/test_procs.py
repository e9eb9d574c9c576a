"""The worker-process core shared by the fleet and the serve supervisor.

:class:`repro.core.procs.WorkerProcess` is driven here against real
child processes: items reach the child in order, ``put`` returns while
the child reads nothing, a message sent just before an exit is read
before the exit is reported, and a message cut off by a kill counts as
unsent instead of hanging the reader.
"""

import fcntl
import os
import pickle
import struct
import termios
import threading
import time

import pytest

from repro.core.procs import WorkerProcess, mp_context, wait

#: Larger than any pipe buffer a default Linux or macOS host gives.
BIG = 4 * 1024 * 1024


def _echo(wid, inbox, results):
    while True:
        item = inbox.get()
        if item is None:
            return
        results.send((wid, item))


def _idle(wid, inbox, results):
    time.sleep(60)


def _send_then_exit(wid, inbox, results, code):
    results.send("last words")
    os._exit(code)


def _send_small_then_big(wid, inbox, results):
    results.send("small")
    results.send(b"x" * BIG)  # blocks: nobody reads until the kill


def _start(target, *args, items=()):
    worker = WorkerProcess(mp_context(), target, 7, *args)
    for item in items:
        worker.put(item)
    return worker


def _drain(worker):
    got = []
    return got, worker.drain(got.append)


def _buffered(conn) -> int:
    """Bytes waiting in a pipe, read without consuming them."""
    return struct.unpack(
        "i", fcntl.ioctl(conn.fileno(), termios.FIONREAD, b"\0" * 4)
    )[0]


def test_items_reach_the_child_in_order_and_none_ends_it():
    worker = _start(_echo, items=["a", "b"])
    try:
        worker.put("c")
        worker.put(None)
        worker.proc.join(30.0)
        got, exitcode = _drain(worker)
    finally:
        worker.close()
    assert got == [(7, "a"), (7, "b"), (7, "c")]
    assert exitcode == 0


def test_put_returns_while_the_child_reads_nothing():
    worker = _start(_idle)
    try:
        started = time.perf_counter()
        worker.put(b"x" * BIG)
        worker.put(b"y" * BIG)
        assert time.perf_counter() - started < 5.0
    finally:
        worker.kill()
        worker.close()


def test_a_message_sent_just_before_an_exit_is_read_first():
    worker = _start(_send_then_exit, 3)
    try:
        worker.proc.join(30.0)
        got, exitcode = _drain(worker)
        assert (got, exitcode) == (["last words"], 3)
        # Read once: a second drain finds only the end of the pipe.
        assert _drain(worker) == ([], 3)
    finally:
        worker.close()


def _kill_mid_write(worker):
    """Kill ``worker`` once the big message is partly in its pipe: the
    child is then inside its write, since the pipe cannot hold it all."""
    small = len(pickle.dumps("small", protocol=pickle.HIGHEST_PROTOCOL))
    deadline = time.monotonic() + 30.0
    while _buffered(worker.results) <= 4 + small + 4:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    worker.kill()
    worker.proc.join(30.0)


def test_a_message_cut_off_by_a_kill_counts_as_unsent():
    worker = _start(_send_small_then_big)
    try:
        _kill_mid_write(worker)
        drained = []
        reader = threading.Thread(
            target=lambda: drained.append(_drain(worker)), daemon=True
        )
        reader.start()
        reader.join(30.0)
        assert not reader.is_alive(), "drain hung on a cut-off message"
        assert drained == [(["small"], -9)]
    finally:
        worker.close()


def test_a_kill_mid_write_does_not_hold_up_another_worker():
    stuck = _start(_send_small_then_big)
    other = _start(_echo)
    try:
        _kill_mid_write(stuck)
        other.put("hello")
        got = []
        deadline = time.monotonic() + 30.0
        while not got:
            assert time.monotonic() < deadline
            wait([stuck, other], 1.0)
            got += _drain(other)[0]
        assert got == [(7, "hello")]
        assert _drain(stuck) == (["small"], -9)
    finally:
        stuck.close()
        other.put(None)
        other.close()


def _exit_at_once(wid, inbox, results):
    os._exit(0)


def test_wait_returns_when_a_worker_exits_without_a_word():
    worker = _start(_exit_at_once)
    try:
        started = time.perf_counter()
        wait([worker], 30.0)
        assert time.perf_counter() - started < 10.0
    finally:
        worker.close()


@pytest.mark.parametrize("told_to_stop", [False, True])
def test_close_reaps_the_child(told_to_stop):
    worker = _start(_echo)
    if told_to_stop:
        worker.put(None)
    worker.close(timeout=30.0 if told_to_stop else 0.0)
    assert not worker.is_alive()
