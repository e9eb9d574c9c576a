"""The registry holds each layer's own counts, read once when a run ends.

The kernel, the block caches, Harrier and the Secpert engine count in
plain fields; ``HTH.run`` writes them into the run's registry.  These
tests run registry rows with metrics on and hold every sampled family
to the number the layer keeps, on warm caches, on a hub shared across
machines, and on one machine that runs twice.
"""

import pytest

from repro.api import Session
from repro.core.engine import EngineCache
from repro.core.options import RunOptions
from repro.kernel.kernel import SLICE_QUANTA
from repro.kernel.syscalls import SYS_RESOLVE, SYS_SOCKETCALL, syscall_name
from repro.programs import registry
from repro.telemetry import Telemetry

METRICS = RunOptions(metrics=True)


def run_row(name, engine, hub=None):
    """Run one registry row on a fresh machine; return the machine and
    its report."""
    workload = registry.get(name)
    hub = hub if hub is not None else Telemetry.enabled()
    hth = workload.build_machine(telemetry=hub, options=METRICS,
                                 engine=engine)
    return hth, hth.run(
        workload.image(engine=engine),
        argv=workload.argv or [workload.program_path],
        env=workload.env,
        stdin=workload.stdin,
    )


def lookups(engine):
    stats = engine.block_caches.stats()
    return stats["hits"], stats["misses"], stats["translated_instructions"]


class TestEachCounterIsTheLayersOwn:
    @pytest.mark.parametrize("name", registry.names(("8",)))
    def test_table8_row(self, name):
        engine = EngineCache()
        before = lookups(engine)
        hth, report = run_row(name, engine)
        after = lookups(engine)
        m = hth.telemetry.metrics
        kernel, harrier = hth.kernel, hth.harrier
        stats = hth.secpert.engine.stats
        assert m.value("cpu_instructions_total") == report.result.instructions
        assert m.value("cpu_quanta_total") == kernel.quanta
        ticks = m.histogram("cpu_ticks_per_quantum")
        assert ticks.total == kernel.instructions
        assert ticks.count == sum(kernel.ticks_per_quantum.values())
        assert m.total("kernel_syscalls_total") == sum(
            kernel.syscall_counts.values()
        )
        for sysno, count in kernel.syscall_counts.items():
            assert m.value(
                "kernel_syscalls_total", name=syscall_name(sysno)
            ) == count
        assert m.value("kernel_fs_ops_total") == kernel.fs_ops
        assert m.value("kernel_net_ops_total") == kernel.net_ops
        assert m.value("kernel_processes_spawned_total") == len(kernel.procs)
        assert m.value("blockcache_flushes_total") == (
            kernel.block_cache_flushes
        )
        assert (
            m.value("blockcache_hits_total"),
            m.value("blockcache_misses_total"),
            m.value("blockcache_translated_instructions_total"),
        ) == tuple(b - a for a, b in zip(before, after))
        assert m.value("harrier_events_emitted_total") == (
            harrier.events_emitted
        )
        assert harrier.events_emitted == len(report.events)
        assert m.value("harrier_events_dropped_total") == report.events_dropped
        assert m.value("secpert_facts_asserted_total") == (
            stats.facts_asserted
        )
        assert m.value("secpert_alpha_activations_total") == (
            stats.alpha_activations
        )
        firings = hth.secpert.engine.firings
        assert m.total("secpert_rule_firings_total") == sum(
            firings.values()
        )
        assert sum(firings.values()) == len(hth.secpert.engine.fire_trace)
        # The wall-time histograms are observed live, once per event.
        assert m.histogram("secpert_match_seconds").count == (
            stats.match_calls
        )


class TestWarmAndSharedRegistries:
    ROW = "superforker"

    def test_a_warm_cache_counts_only_this_runs_lookups(self):
        engine = EngineCache()
        cold, _ = run_row(self.ROW, engine)
        before = lookups(engine)
        warm, _ = run_row(self.ROW, engine)
        after = lookups(engine)
        m = warm.telemetry.metrics
        hits = m.value("blockcache_hits_total")
        misses = m.value("blockcache_misses_total")
        assert (hits, misses) == (after[0] - before[0], after[1] - before[1])
        # Every block was translated by the cold run.
        assert misses == 0 < cold.telemetry.metrics.value(
            "blockcache_misses_total"
        )
        assert hits + misses == cold.telemetry.metrics.total(
            "blockcache_hits_total"
        ) + cold.telemetry.metrics.total("blockcache_misses_total")

    def test_a_shared_hub_accumulates_across_machines(self):
        engine = EngineCache()
        hub = Telemetry.enabled()
        first, first_report = run_row(self.ROW, engine, hub)
        second, second_report = run_row("pma", engine, hub)
        total = (first_report.result.instructions
                 + second_report.result.instructions)
        assert hub.metrics.value("cpu_instructions_total") == total
        assert hub.metrics.value("secpert_facts_asserted_total") == (
            first.secpert.engine.stats.facts_asserted
            + second.secpert.engine.stats.facts_asserted
        )

    def test_a_second_run_on_one_machine_adds_only_its_own(self):
        engine = EngineCache()
        workload = registry.get("grabem")
        hub = Telemetry.enabled()
        hth = workload.build_machine(telemetry=hub, options=METRICS,
                                     engine=engine)
        image = workload.image(engine=engine)
        argv = workload.argv or [workload.program_path]
        first = hth.run(image, argv=argv, env=workload.env,
                        stdin=workload.stdin)
        once = hub.metrics.value("cpu_instructions_total")
        events_once = hub.metrics.value("harrier_events_emitted_total")
        second = hth.run(image, argv=argv, env=workload.env,
                         stdin=workload.stdin)
        # The kernel's count runs on across the machine's runs.
        assert once == first.result.instructions
        assert hub.metrics.value("cpu_instructions_total") == (
            second.result.instructions
        ) > once
        assert hub.metrics.value("harrier_events_emitted_total") == (
            hth.harrier.events_emitted
        ) == 2 * events_once


class TestMetricFixes:
    def test_a_200_tick_quantum_lands_in_a_finite_bucket(self):
        hth, _ = run_row("pma", EngineCache())
        ticks = hth.telemetry.metrics.histogram("cpu_ticks_per_quantum")
        assert ticks.max == hth.kernel.quantum == 200
        assert ticks.buckets[-1] == 200 * SLICE_QUANTA
        assert ticks.bucket_counts[-1] == 0
        index = next(i for i, bound in enumerate(ticks.buckets)
                     if 200 <= bound)
        assert ticks.bucket_counts[index] > 0

    def test_a_blocked_network_call_counts_once(self):
        # The server accepts before its client connects: the accept
        # blocks and is retried, and still counts as one net op.
        session = Session(METRICS)
        report = session.run_workload(
            registry.get("Binary -> Socket: Hardcoded address (server)")
        )
        snapshot = report.telemetry
        network_calls = sum(
            snapshot.metric("kernel_syscalls_total", name=syscall_name(n))
            or 0
            for n in (SYS_SOCKETCALL, SYS_RESOLVE)
        )
        assert network_calls == 5
        assert snapshot.metric("kernel_net_ops_total") == network_calls
