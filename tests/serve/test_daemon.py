"""End-to-end daemon tests: the serve robustness contract, live.

Each test boots a real ServeDaemon (unix socket and/or HTTP) with a
real worker pool and holds one promise from the module docstring:
streamed warnings land before the report, served reports are
bit-identical to batch, overload answers 429/queue-full instead of
buffering, kills are contained and healed, shutdown drains, and a
chaos round answers every submission.
"""

import asyncio
import contextlib
import json

from repro.api import Session
from repro.core.options import RunOptions
from repro.faultinject import (
    DaemonChaosProfile,
    FaultProfile,
    run_serve_chaos,
)
from repro.fleet.refs import WorkloadRef
from repro.serve import (
    ServeClient,
    ServeDaemon,
    Submission,
    submit_async,
)
from repro.serve.admission import (
    REASON_QUEUE_FULL,
    REASON_RATE_LIMITED,
    REASON_SHUTTING_DOWN,
    REASON_TICK_BUDGET,
)
from tests.oracles.httpclient import http_get, http_get_text, http_submit
from tests.oracles.openmetrics import validate_openmetrics

BENIGN = Submission(
    source="main:\n    mov eax, 0\n    ret\n", name="benign"
)

#: ~0.45s of guest time on a 2-vCPU host (the spin runs as a loop
#: trace) — long enough to be reliably mid-run when the test intervenes
#: (kill, backpressure probe, drain), short enough to keep the suite
#: quick, and 4.5M ticks, inside the default 5M-tick budget.
_SLOW_SRC = """
main:
    mov ecx, 1500000
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    ret
"""
SLOW = Submission(source=_SLOW_SRC, name="slow")

TROJAN_TABLE, TROJAN_NAME = "4", "Remote execve"


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


async def wait_until(predicate, timeout=15.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.02)


def kinds(events):
    return [e.get("kind") for e in events]


#: Submissions whose fields have the wrong JSON shape: each must end in
#: one ``rejected``/``invalid-submission`` event (HTTP 400), never a
#: dropped connection.
WRONG_SHAPES = [
    {"workload": "x"},
    {"workload": {}},
    {"source": "nop", "files": [1]},
    {"source": "nop", "peers": "ab"},
    {"source": "nop", "argv": 5},
    {"source": "nop", "options": "x"},
]


def invalid_count(d):
    """``serve_rejected_total{reason="invalid-submission"}``."""
    return d.metrics.counter(
        "serve_rejected_total", tenant="default",
        reason="invalid-submission",
    ).value


async def http_exchange(port, head, body=b""):
    """One raw HTTP request; returns (status, decoded JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(head + body)
    await writer.drain()
    response = await reader.read()
    writer.close()
    status_line, _, rest = response.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(
        rest.partition(b"\r\n\r\n")[2]
    )


# ---------------------------------------------------------------------------
# streaming + bit-identity


class TestServedDetection:
    def test_warning_streams_before_the_report(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                sub = Submission(workload=(TROJAN_TABLE, TROJAN_NAME))
                return await submit_async(d.unix_path, sub)

        events = run(main())
        ks = kinds(events)
        assert ks[0] == "accepted"
        assert ks[-1] == "report"
        assert "warning" in ks, "no live warning reached the client"
        assert ks.index("warning") < ks.index("report")
        warnings = [e for e in events if e["kind"] == "warning"]
        assert [w["seq"] for w in warnings] == list(range(len(warnings)))
        assert warnings[0]["warning"]["severity"] in (
            "LOW", "MEDIUM", "HIGH"
        )
        assert any(
            w["warning"]["severity"] == "HIGH" for w in warnings
        ), "the Table 4 Trojan should stream a HIGH warning"

    def test_served_report_is_bit_identical_to_batch(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                sub = Submission(workload=(TROJAN_TABLE, TROJAN_NAME))
                return await submit_async(d.unix_path, sub)

        served = run(main())[-1]
        batch = Session().run_workload(
            WorkloadRef.from_registry(TROJAN_TABLE, TROJAN_NAME).resolve(),
            options=RunOptions(),
        )
        def dumps(r):
            return json.dumps(r, sort_keys=True, default=str)

        assert dumps(served["report"]) == dumps(batch.to_dict())
        assert served["ok"] is True  # registry classification check

    def test_blocking_client_sees_the_same_stream(self, tmp_path):
        seen = []

        async def main():
            async with daemon(tmp_path) as d:
                loop = asyncio.get_running_loop()
                client = ServeClient(d.unix_path)
                sub = Submission(workload=(TROJAN_TABLE, TROJAN_NAME))
                return await loop.run_in_executor(
                    None, client.submit, sub, seen.append
                )

        terminal = run(main())
        assert terminal["kind"] == "report"
        assert "warning" in kinds(seen)


# ---------------------------------------------------------------------------
# backpressure and rejection


class TestBackpressure:
    def test_queue_full_is_answered_immediately(self, tmp_path):
        async def main():
            async with daemon(tmp_path, queue_limit=1) as d:
                slow = asyncio.create_task(
                    submit_async(d.unix_path, SLOW)
                )
                await wait_until(lambda: d.admission.depth == 1)
                turned_away = await submit_async(d.unix_path, BENIGN)
                return turned_away, await slow

        turned_away, slow_events = run(main())
        assert kinds(turned_away) == ["rejected"]
        assert turned_away[0]["reason"] == REASON_QUEUE_FULL
        # the in-flight submission was untouched by the overload
        assert kinds(slow_events)[-1] == "report"

    def test_tenant_rate_limit(self, tmp_path):
        async def main():
            async with daemon(tmp_path, rate=0.1, burst=2.0) as d:
                first = await submit_async(d.unix_path, BENIGN)
                # an identical resubmission answers from the verdict
                # cache (no queue slot, no tick spend) but still pays a
                # rate token, so replay storms stay bounded
                hit = await submit_async(d.unix_path, BENIGN)
                # the tenant's bucket is drained: even a replay of the
                # cached submission is turned away before key digesting
                replay = await submit_async(d.unix_path, BENIGN)
                # novel work from the drained tenant too
                novel = Submission(
                    source=BENIGN.source, argv=["novel"], name="benign"
                )
                second = await submit_async(d.unix_path, novel)
                # a different tenant still gets in
                other = await submit_async(
                    d.unix_path,
                    Submission(source=BENIGN.source, argv=["novel"],
                               tenant="other"),
                )
                return first, hit, replay, second, other

        first, hit, replay, second, other = run(main())
        assert kinds(first)[-1] == "report"
        assert hit[-1]["kind"] == "report"
        assert hit[-1]["cached"] is True
        assert replay[0]["reason"] == REASON_RATE_LIMITED
        assert second[0]["reason"] == REASON_RATE_LIMITED
        assert kinds(other)[-1] == "report"

    def test_tick_budget_prices_big_runs_out(self, tmp_path):
        async def main():
            async with daemon(
                tmp_path, tick_rate=1000.0, tick_burst=1000.0
            ) as d:
                big = Submission(
                    source=BENIGN.source,
                    options=RunOptions(max_ticks=5000),
                )
                small = Submission(
                    source=BENIGN.source,
                    options=RunOptions(max_ticks=500),
                )
                return (
                    await submit_async(d.unix_path, big),
                    await submit_async(d.unix_path, small),
                )

        big_events, small_events = run(main())
        assert big_events[0]["reason"] == REASON_TICK_BUDGET
        assert kinds(small_events)[-1] == "report"

    def test_garbage_line_is_rejected_not_crashed(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                reader, writer = await asyncio.open_unix_connection(
                    d.unix_path
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                line = await reader.readline()
                writer.close()
                # the daemon survived: a real submission still works
                ok = await submit_async(d.unix_path, BENIGN)
                return json.loads(line), ok

        rejected, ok = run(main())
        assert rejected["kind"] == "rejected"
        assert rejected["reason"] == "invalid-submission"
        assert kinds(ok)[-1] == "report"

    def test_malformed_submission_shape_is_rejected(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                reader, writer = await asyncio.open_unix_connection(
                    d.unix_path
                )
                both = {"source": "main:\n ret\n",
                        "workload": {"table": "4", "name": "Hardcode"}}
                writer.write((json.dumps(both) + "\n").encode())
                await writer.drain()
                line = await reader.readline()
                writer.close()
                return json.loads(line)

        rejected = run(main())
        assert rejected["kind"] == "rejected"
        assert rejected["reason"] == "invalid-submission"
        assert "exactly one" in rejected["detail"]

    def test_wrong_field_shapes_end_in_rejected(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                streams = []
                for wire in WRONG_SHAPES:
                    reader, writer = await asyncio.open_unix_connection(
                        d.unix_path
                    )
                    writer.write((json.dumps(wire) + "\n").encode())
                    await writer.drain()
                    streams.append([
                        json.loads(line) for line in
                        (await reader.read()).splitlines()
                    ])
                    writer.close()
                ok = await submit_async(d.unix_path, BENIGN)
                return streams, invalid_count(d), ok

        streams, counted, ok = run(main())
        for stream in streams:
            assert kinds(stream) == ["rejected"]
            assert stream[0]["reason"] == "invalid-submission"
        assert counted == len(WRONG_SHAPES)
        assert kinds(ok)[-1] == "report"


# ---------------------------------------------------------------------------
# HTTP front


class TestHttpFront:
    def test_healthz_stats_and_submit(self, tmp_path):
        async def main():
            async with daemon(
                tmp_path, unix_path=None, host="127.0.0.1", port=0
            ) as d:
                loop = asyncio.get_running_loop()
                health = await loop.run_in_executor(
                    None, http_get, "127.0.0.1", d.port, "/healthz"
                )
                events = await loop.run_in_executor(
                    None, http_submit, "127.0.0.1", d.port,
                    Submission(workload=(TROJAN_TABLE, TROJAN_NAME)),
                )
                stats = await loop.run_in_executor(
                    None, http_get, "127.0.0.1", d.port, "/stats"
                )
                missing = await loop.run_in_executor(
                    None, http_get, "127.0.0.1", d.port, "/nope"
                )
                return health, events, stats, missing

        health, events, stats, missing = run(main())
        assert health["status"] == 200
        assert health["body"]["ok"] is True
        assert health["body"]["live_workers"] == 1
        ks = kinds(events)
        assert ks[0] == "accepted" and ks[-1] == "report"
        assert "warning" in ks and ks.index("warning") < ks.index("report")
        assert stats["status"] == 200
        assert "0" in {
            str(k) for k in stats["body"]["supervisor"]["workers"]
        }
        assert missing["status"] == 404

    def test_healthz_reports_uptime_generations_provenance(self, tmp_path):
        async def main():
            async with daemon(
                tmp_path, unix_path=None, host="127.0.0.1", port=0
            ) as d:
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    None, http_get, "127.0.0.1", d.port, "/healthz"
                )

        health = run(main())["body"]
        assert health["uptime_seconds"] >= 0
        assert health["worker_generations"] == {"0": 1}
        assert health["provenance_enabled"] is True

    def test_metrics_endpoint_serves_valid_openmetrics(self, tmp_path):
        async def main():
            async with daemon(
                tmp_path, unix_path=None, host="127.0.0.1", port=0
            ) as d:
                loop = asyncio.get_running_loop()
                cold = await loop.run_in_executor(
                    None, http_get_text, "127.0.0.1", d.port, "/metrics"
                )
                await loop.run_in_executor(
                    None, http_submit, "127.0.0.1", d.port,
                    Submission(workload=(TROJAN_TABLE, TROJAN_NAME)),
                )
                warm = await loop.run_in_executor(
                    None, http_get_text, "127.0.0.1", d.port, "/metrics"
                )
                return cold, warm

        cold, warm = run(main())
        assert cold["status"] == 200
        assert cold["content_type"].startswith(
            "application/openmetrics-text"
        )
        # the serve/harrier/provenance families exist before any traffic
        assert validate_openmetrics(cold["text"]) == []
        for family in ("serve_admitted", "serve_rejected",
                       "harrier_events_emitted", "harrier_warnings",
                       "provenance_sources", "provenance_evidence"):
            assert f"# TYPE {family} counter" in cold["text"]
        assert validate_openmetrics(warm["text"]) == []
        assert 'serve_admitted_total{tenant="default"} 1' in warm["text"]
        assert "harrier_warnings_total 1" in warm["text"]

        def value(text, prefix):
            for line in text.splitlines():
                if line.startswith(prefix):
                    return float(line.rsplit(" ", 1)[1])
            raise AssertionError(f"{prefix} not exposed")

        assert value(warm["text"], "provenance_evidence_total") >= 1
        assert value(warm["text"], "provenance_sources_total") >= 1
        assert value(warm["text"], "harrier_events_emitted_total") >= 1
        # The worker's block-JIT code cache, as of its last result.
        for gauge in ("blockjit_code_objects", "blockjit_compiles",
                      "blockjit_evictions", "blockjit_fused_blocks",
                      "blockjit_op_codes", "blockjit_op_compiles"):
            assert value(warm["text"], f'{gauge}{{worker="0"}}') >= 0
        # ... and its op table: every translated instruction runs a
        # per-op function compiled from its op shape.
        assert value(warm["text"], 'blockjit_op_codes{worker="0"}') >= 1
        # ... and its rule-matcher code cache: Secpert's shapes, built
        # at least once per run.
        for gauge in ("secpert_matcher_shapes", "secpert_matcher_compiles",
                      "secpert_matcher_evictions", "secpert_matcher_builds"):
            assert value(warm["text"], f'{gauge}{{worker="0"}}') >= 0
        assert value(
            warm["text"], 'secpert_matcher_shapes{worker="0"}'
        ) >= 1
        # ... and its library plan tables: libc and the startup shim.
        assert value(
            warm["text"], 'blockcache_library_entries{worker="0"}'
        ) == 2
        assert value(
            warm["text"], 'blockcache_library_plans{worker="0"}'
        ) >= 1

    def test_wrong_field_shapes_are_answered_400(self, tmp_path):
        async def main():
            async with daemon(
                tmp_path, unix_path=None, host="127.0.0.1", port=0
            ) as d:
                answers = []
                for wire in WRONG_SHAPES:
                    body = json.dumps(wire).encode()
                    answers.append(await http_exchange(
                        d.port,
                        b"POST /submit HTTP/1.1\r\nContent-Length: "
                        + str(len(body)).encode() + b"\r\n\r\n",
                        body,
                    ))
                bad_length = await http_exchange(
                    d.port,
                    b"POST /submit HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                )
                health = await asyncio.get_running_loop().run_in_executor(
                    None, http_get, "127.0.0.1", d.port, "/healthz"
                )
                return answers, bad_length, invalid_count(d), health

        answers, bad_length, counted, health = run(main())
        for status, event in answers + [bad_length]:
            assert status == 400
            assert event["kind"] == "rejected"
            assert event["reason"] == "invalid-submission"
        assert bad_length[1]["detail"] == "bad content-length"
        assert counted == len(WRONG_SHAPES)
        assert health["status"] == 200

    def test_http_backpressure_maps_to_429(self, tmp_path):
        async def main():
            async with daemon(
                tmp_path, unix_path=None, host="127.0.0.1", port=0,
                tick_rate=1000.0, tick_burst=1000.0,
            ) as d:
                loop = asyncio.get_running_loop()
                big = Submission(
                    source=BENIGN.source,
                    options=RunOptions(max_ticks=5000),
                )
                return await loop.run_in_executor(
                    None, http_submit, "127.0.0.1", d.port, big
                )

        events = run(main())
        assert events[0]["kind"] == "rejected"
        assert events[0]["reason"] == REASON_TICK_BUDGET
        assert events[0]["http_status"] == 429


# ---------------------------------------------------------------------------
# self-healing and shutdown


class TestSelfHealing:
    def test_killed_busy_worker_is_contained_and_healed(self, tmp_path):
        async def main():
            async with daemon(tmp_path, max_retries=1) as d:
                task = asyncio.create_task(submit_async(d.unix_path, SLOW))
                await wait_until(
                    lambda: d.supervisor.busy_worker_ids() == [0]
                )
                await asyncio.sleep(0.1)
                assert d.supervisor.kill_worker(0)
                events = await task
                await wait_until(
                    lambda: d.supervisor.idle_workers() == 1, timeout=30.0
                )
                return events, d.supervisor.stats()

        events, stats = run(main())
        ks = kinds(events)
        assert "retry" in ks
        retry = events[ks.index("retry")]
        assert retry["reason"] == "worker-crash"
        assert ks[-1] == "report"
        assert events[-1]["report"]["verdict"] == "benign"
        assert events[-1]["timing"]["attempts"] == 2
        assert stats["workers"][0]["restarts"] >= 1

    def test_shutdown_drains_in_flight_work(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                task = asyncio.create_task(submit_async(d.unix_path, SLOW))
                await wait_until(lambda: d.admission.depth == 1)
                await d.shutdown(drain=True, timeout=60.0)
                return await task

        events = run(main())
        assert kinds(events)[-1] == "report", (
            "drain must let in-flight work finish, not error it out"
        )

    def test_draining_daemon_turns_new_work_away(self, tmp_path):
        async def main():
            async with daemon(tmp_path) as d:
                d.admission.drain()
                return await submit_async(d.unix_path, BENIGN)

        events = run(main())
        assert events[0]["kind"] == "rejected"
        assert events[0]["reason"] == REASON_SHUTTING_DOWN


# ---------------------------------------------------------------------------
# daemon chaos


class TestDaemonChaos:
    def test_chaos_round_loses_nothing(self, tmp_path):
        trojan = Submission(
            workload=(TROJAN_TABLE, TROJAN_NAME), name="remote-execve"
        )
        slow_a = Submission(source=_SLOW_SRC, name="slow-a")
        slow_b = Submission(source=_SLOW_SRC, name="slow-b")
        faulted = Submission(
            source=_SLOW_SRC, name="faulted",
            options=RunOptions(
                fault_profile=FaultProfile(stall_rate=0.2), fault_seed=7
            ),
        )
        submissions = [trojan, slow_a, slow_b, faulted]

        # batch baseline for the bit-identity check (non-faulted only)
        from repro.serve.worker import execute_submission

        session = Session()
        baseline = {
            sub.name: execute_submission(session, sub)[0].to_dict()
            for sub in (trojan, slow_a, slow_b)
        }

        async def main():
            async with daemon(
                tmp_path, workers=2, max_retries=2
            ) as d:
                return await run_serve_chaos(
                    d, submissions,
                    profile=DaemonChaosProfile(
                        kill_interval=0.15, kills=2
                    ),
                    seed=1337,
                    baseline=baseline,
                )

        result = run(main(), timeout=180.0)
        assert result.all_answered, f"lost: {result.lost}"
        assert result.lost == []
        assert result.mismatches == [], (
            "non-faulted served reports must match batch bit-for-bit"
        )
        assert len(result.kills) <= 2
        summary = result.summary()
        assert summary["submissions"] == 4
        assert summary["answered"] == 4
