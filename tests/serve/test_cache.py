"""The daemon's verdict cache: rate-metered hits, bit-identical replies.

Serve-specific cache promises: a repeat submission is answered from the
daemon-level cache without a queue slot or tick spend (its tenant rate
token is still charged, so replay storms stay bounded), the reply
(report *and* streamed warnings) is bit-identical to the fresh stream,
``accepted``/``report`` events carry ``cached``, submissions of an older
wire version are rejected, fault/chaos submissions always execute, and
no per-submission compute (assembly, key digests) happens for
rate-limited clients.
"""

import asyncio
import contextlib
import json

import pytest

from repro.serve import ServeDaemon, Submission, submit_async
from repro.serve.admission import REASON_TICK_BUDGET
from repro.serve.protocol import (
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    encode_event,
    options_from_wire,
    options_to_wire,
)
from repro.core.options import RunOptions

TROJAN = ("4", "Remote execve")

_SOURCE = """
.data
msg: .asciz "/etc/passwd"
.text
main:
    mov eax, 5
    mov ebx, msg
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
"""


def run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@contextlib.asynccontextmanager
async def daemon(tmp_path, **kwargs):
    kwargs.setdefault("unix_path", str(tmp_path / "serve.sock"))
    kwargs.setdefault("workers", 1)
    d = ServeDaemon(**kwargs)
    await d.start()
    await d.wait_ready()
    try:
        yield d
    finally:
        await d.shutdown(drain=True, timeout=60.0)


def kinds(events):
    return [e.get("kind") for e in events]


def dumps(value):
    return json.dumps(value, sort_keys=True, default=str)


class TestServeCacheHits:
    def test_repeat_submission_is_cached_and_bit_identical(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                sub = Submission(workload=TROJAN)
                fresh = await submit_async(d.unix_path, sub)
                hit = await submit_async(d.unix_path, sub)
                return fresh, hit, d._healthz(), d._stats()

        fresh, hit, healthz, stats = run(main())
        assert kinds(fresh) == kinds(hit)
        assert fresh[0]["cached"] is False
        assert hit[0]["cached"] is True
        assert fresh[-1]["cached"] is False
        assert hit[-1]["cached"] is True
        assert dumps(fresh[-1]["report"]) == dumps(hit[-1]["report"])
        fresh_warnings = [e["warning"] for e in fresh
                          if e["kind"] == "warning"]
        hit_warnings = [e["warning"] for e in hit
                        if e["kind"] == "warning"]
        assert fresh_warnings and dumps(fresh_warnings) == \
            dumps(hit_warnings)
        assert healthz["cache"] == {
            "enabled": True, "hits": 1, "misses": 1, "hit_rate": 0.5,
        }
        assert stats["cache"]["namespace"] == "serve"
        assert stats["cache"]["hits"] == 1

    def test_inline_source_submissions_cache_too(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                sub = Submission(source=_SOURCE, path="/bin/t",
                                 files={"/etc/passwd": "root:x"},
                                 name="inline")
                fresh = await submit_async(d.unix_path, sub)
                hit = await submit_async(d.unix_path, sub)
                # One changed seeded-file byte must execute fresh.
                variant = await submit_async(d.unix_path, Submission(
                    source=_SOURCE, path="/bin/t",
                    files={"/etc/passwd": "root:y"}, name="inline",
                ))
                return fresh, hit, variant

        fresh, hit, variant = run(main())
        assert hit[-1]["cached"] is True
        assert dumps(fresh[-1]["report"]) == dumps(hit[-1]["report"])
        assert variant[-1]["cached"] is False

    def test_hits_do_not_consume_tick_budget(self, tmp_path):
        """A cache hit claims no queue slot and no tick spend — repeat
        traffic costs only a rate token even under a strict budget."""
        budget = RunOptions().max_ticks  # exactly one fresh submission

        async def main():
            async with daemon(tmp_path, tick_rate=0.001,
                              tick_burst=budget) as d:
                sub = Submission(workload=TROJAN)
                fresh = await submit_async(d.unix_path, sub)
                hits = []
                for _ in range(3):
                    hits.append(await submit_async(d.unix_path, sub))
                # A *different* submission needs real budget: rejected.
                other = await submit_async(d.unix_path, Submission(
                    workload=("4", "Hardcode")
                ))
                return fresh, hits, other

        fresh, hits, other = run(main())
        assert fresh[-1]["kind"] == "report"
        for hit in hits:
            assert hit[-1]["kind"] == "report"
            assert hit[-1]["cached"] is True
        assert other[-1]["kind"] == "rejected"
        assert other[-1]["reason"] == REASON_TICK_BUDGET


class TestAdmissionOrdering:
    """The rate precheck runs before any per-submission compute, the
    daemon's assemble memo is bounded, and its disk tier is data-only
    JSON — an overload or a writable cache_dir cannot become unbounded
    memory, a wedged event loop, or code execution."""

    def test_rate_limited_submissions_never_reach_assembly(self, tmp_path):
        from repro.serve.admission import REASON_RATE_LIMITED

        async def main():
            async with daemon(tmp_path, rate=0.001, burst=1.0) as d:
                first = await submit_async(d.unix_path, Submission(
                    source=_SOURCE, path="/bin/t", name="inline"))
                assembled = d._engine.stats()["images"]
                # Rate-drained: a *novel* source must be turned away
                # before the daemon assembles or digests it.
                second = await submit_async(d.unix_path, Submission(
                    source=_SOURCE.replace("mov ebx, 0", "mov ebx, 9"),
                    path="/bin/t", name="inline"))
                return first, second, assembled, d._engine.stats()["images"]

        first, second, before, after = run(main())
        assert first[-1]["kind"] == "report"
        assert second[-1]["kind"] == "rejected"
        assert second[-1]["reason"] == REASON_RATE_LIMITED
        assert after == before

    def test_daemon_assemble_memo_is_bounded(self, tmp_path):
        from repro.serve.server import ASSEMBLE_MEMO_CAPACITY

        d = ServeDaemon(unix_path=str(tmp_path / "serve.sock"))
        assert d._engine.max_images == ASSEMBLE_MEMO_CAPACITY

    def test_serve_disk_tier_is_json(self, tmp_path):
        import os

        cache_dir = tmp_path / "cache"

        async def main():
            async with daemon(tmp_path, cache_dir=str(cache_dir)) as d:
                await submit_async(d.unix_path, Submission(workload=TROJAN))

        run(main())
        files = [os.path.join(dirpath, name)
                 for dirpath, _, names in os.walk(cache_dir)
                 for name in names if name.endswith(".rvc")]
        assert files
        for path in files:
            with open(path, "rb") as fh:
                envelope = json.loads(fh.read())
            assert envelope["key"].startswith("serve-")
            assert "report" in envelope["value"]


class TestSharedCacheDir:
    def test_planted_list_entry_is_rerun_not_a_closed_stream(self,
                                                             tmp_path):
        """A valid-JSON entry of the wrong shape in a shared cache dir is
        a corrupt miss: the submission runs and ends in a report."""
        import os

        cache_dir = tmp_path / "cache"
        sub = Submission(workload=TROJAN)

        async def first():
            async with daemon(tmp_path, cache_dir=str(cache_dir)) as d:
                return await submit_async(d.unix_path, sub)

        async def second():
            async with daemon(tmp_path, cache_dir=str(cache_dir)) as d:
                rerun = await submit_async(d.unix_path, sub)
                hit = await submit_async(d.unix_path, sub)
                return rerun, hit, d.cache.snapshot()

        fresh = run(first())
        (path,) = [os.path.join(dirpath, name)
                   for dirpath, _, names in os.walk(cache_dir)
                   for name in names if name.endswith(".rvc")]
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["value"] = [1, 2, 3]
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        rerun, hit, snap = run(second())
        assert kinds(rerun) == kinds(fresh)
        assert rerun[-1]["cached"] is False
        assert rerun[-1]["report"] == fresh[-1]["report"]
        assert snap["disk_corrupt"] == 1
        # The re-run's result replaced the planted one.
        assert hit[-1]["kind"] == "report" and hit[-1]["cached"] is True
        assert hit[-1]["report"] == fresh[-1]["report"]


class TestCacheMetricsExposition:
    def test_cache_families_land_in_openmetrics(self, tmp_path):
        from repro.telemetry.metrics import render_openmetrics

        async def main():
            async with daemon(tmp_path) as d:
                sub = Submission(workload=TROJAN)
                await submit_async(d.unix_path, sub)
                await submit_async(d.unix_path, sub)
                return render_openmetrics(d.metrics.samples())

        text = run(main())
        assert "# TYPE cache_hits counter" in text
        assert 'cache_hits_total{tier="memory"} 1' in text
        assert "cache_misses_total 1" in text
        assert "cache_stores_total 1" in text
        assert "cache_lookup_seconds" in text
        assert 'cache_bypass_total{reason="faults"} 0' in text
        assert "cache_entries 1" in text


class TestServeCacheBypasses:
    def test_no_cache_option_executes_fresh_every_time(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                sub = Submission(workload=TROJAN,
                                 options=RunOptions(cache=False))
                first = await submit_async(d.unix_path, sub)
                second = await submit_async(d.unix_path, sub)
                return first, second, d.cache.snapshot()

        first, second, snap = run(main())
        assert first[-1]["cached"] is False
        assert second[-1]["cached"] is False
        assert snap["hits"] == 0
        assert snap["bypass"].get("disabled") == 2

    def test_fault_profile_submissions_always_execute(self, tmp_path):
        from repro.faultinject import TRANSPARENT_PROFILE

        async def main():
            async with daemon(tmp_path) as d:
                sub = Submission(
                    workload=TROJAN,
                    options=RunOptions(
                        fault_profile=TRANSPARENT_PROFILE, fault_seed=1,
                    ),
                )
                first = await submit_async(d.unix_path, sub)
                second = await submit_async(d.unix_path, sub)
                return first, second, d.cache.snapshot()

        first, second, snap = run(main())
        assert first[-1]["kind"] == "report"
        assert second[-1]["cached"] is False
        assert snap["hits"] == 0
        assert snap["bypass"].get("faults") == 2

    def test_daemon_without_cache_still_serves(self, tmp_path):
        async def main():
            async with daemon(tmp_path, cache=False) as d:
                sub = Submission(workload=TROJAN)
                events = await submit_async(d.unix_path, sub)
                return events, d._healthz()

        events, healthz = run(main())
        assert events[-1]["kind"] == "report"
        assert events[-1]["cached"] is False
        assert healthz["cache"] == {"enabled": False}


class TestWireVersion:
    """The daemon speaks only the current wire schema."""

    @staticmethod
    def _send_raw(tmp_path, wire):
        async def main():
            async with daemon(tmp_path) as d:
                reader, writer = await asyncio.open_unix_connection(
                    d.unix_path
                )
                writer.write(encode_event(wire))
                await writer.drain()
                events = []
                while True:
                    line = await reader.readline()
                    event = json.loads(line)
                    events.append(event)
                    if event["kind"] in ("report", "rejected", "error"):
                        break
                writer.close()
                return events

        return run(main())

    def test_v1_submission_over_the_wire_is_rejected(self, tmp_path):
        events = self._send_raw(tmp_path, {
            "schema_version": 1,
            "tenant": "legacy",
            "name": "old-client",
            "workload": {"table": TROJAN[0], "name": TROJAN[1]},
            "options": {"max_ticks": 5_000_000},
        })
        assert [e["kind"] for e in events] == ["rejected"]
        assert "schema_version 1" in events[0]["detail"]

    def test_v2_submission_asking_for_a_profile_is_rejected(self, tmp_path):
        # A v2 client could ask for the static-profile event v3 removed;
        # it gets a rejection, not a stream that silently lacks it.
        events = self._send_raw(tmp_path, {
            "schema_version": 2,
            "workload": {"table": TROJAN[0], "name": TROJAN[1]},
            "triage": True,
        })
        assert [e["kind"] for e in events] == ["rejected"]
        assert events[0]["reason"] == "invalid-submission"
        assert "schema_version 2" in events[0]["detail"]

    def test_only_the_current_version_decodes(self):
        assert SERVE_SCHEMA_VERSION == 3
        wire = Submission(source="main:\n ret\n").to_wire()
        assert Submission.from_wire(wire).source == "main:\n ret\n"
        with pytest.raises(ProtocolError, match="schema_version"):
            Submission.from_wire(dict(wire, schema_version=1))
        with pytest.raises(ProtocolError, match="schema_version"):
            Submission.from_wire(dict(wire, schema_version=2))

    def test_options_wire_round_trip_carries_cache(self):
        options = RunOptions(cache=False, max_ticks=123)
        wire = options_to_wire(options)
        assert wire["cache"] is False
        back = options_from_wire(wire)
        assert back.cache is False and back.max_ticks == 123

    def test_missing_cache_option_defaults_on(self):
        back = options_from_wire({"max_ticks": 99})
        assert back.cache is True
