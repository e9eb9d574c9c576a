"""Reference implementations the production paths must match bit for bit.

The runtime has one execution engine (the block translation cache,
whose blocks run as generated per-op functions until the block JIT
fuses the hot ones, both from one emitter), one taint path (compiled block and block-prefix
summaries) and one rule matcher (Rete).  The simpler implementations
they replaced live here, as differential oracles only, beside the
switches that pin the block JIT to one executor:

* :mod:`tests.oracles.interpreter` — the per-instruction CPU interpreter
  (and its ``fetch``) with Harrier's per-instruction taint replay;
* :mod:`tests.oracles.replay` — template replay of every block's taint,
  transfer by transfer (the compiled summaries never run);
* :mod:`tests.oracles.matcher` — the naive full-rejoin rule matcher
  and the interpreted reading of a pattern the generated matchers
  replace;
* :mod:`tests.oracles.readers` — per-cell guest-memory and shadow-tag
  readers (strings, buffers, a range's tags, a string's NUL scan, every
  live cell's tags, the application image);
* :mod:`tests.oracles.facts` — the slot-by-slot copy of a Harrier event
  into a CLIPS fact that Secpert's templates, which read the event in
  place, replace;
* :mod:`tests.oracles.cachestats` — block-cache hit, miss and
  translation counts summed over a kernel's caches;
* :mod:`tests.oracles.jit` — block-JIT switches: fuse every block from
  its first execution, run the per-op functions only, keep
  fused blocks on the record path (the monitor in ``on_block``), trace
  every loop from its first fused exit, or never trace one, or have
  generated code call every taint applier instead of inlining its
  steady state;
* :mod:`tests.oracles.schedule` — one quantum per process per
  scheduler pass, with no multi-quantum slice for a lone process;
* :mod:`tests.oracles.httpclient` — a stdlib client for the serve
  daemon's HTTP front (``/healthz``, ``/stats``, ``/metrics``, a
  streamed ``/submit``);
* :mod:`tests.oracles.openmetrics` — a minimal validator of an
  OpenMetrics exposition.

Each path oracle is installed with a context manager that patches the
one production path it stands in for, so no product constructor, option
or CLI flag selects it; the readers, the event copy, the cache counts,
the HTTP client and the validator are plain functions the tests call
beside the production ones.  A patch made before a fork is inherited
by fork-started fleet and serve workers.
"""

from tests.oracles.interpreter import reference_interpreter
from tests.oracles.jit import (
    applier_calls,
    closure_only,
    fuse_every_block,
    no_traces,
    record_path,
    trace_every_loop,
)
from tests.oracles.matcher import naive_matcher
from tests.oracles.replay import template_replay
from tests.oracles.schedule import one_quantum_per_pass

__all__ = [
    "applier_calls",
    "closure_only",
    "fuse_every_block",
    "naive_matcher",
    "no_traces",
    "one_quantum_per_pass",
    "record_path",
    "reference_interpreter",
    "template_replay",
    "trace_every_loop",
]
