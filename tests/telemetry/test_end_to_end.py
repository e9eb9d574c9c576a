"""Telemetry threaded through the whole stack: one monitored run feeds
the registry, the span tree, and the RunReport snapshot."""

import json

import pytest

from repro.core.hth import HTH
from repro.isa.assembler import assemble
from repro.telemetry import (
    CATEGORY_ANALYSIS,
    CATEGORY_PROCESS,
    CATEGORY_RUN,
    CATEGORY_SYSCALL,
    Telemetry,
)

#: Reads a seeded secret and drops it into a new file — touches fs
#: syscalls, taints memory, and fires an info-flow rule.
EXFIL_SOURCE = """
main:
    mov ebx, secret
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 64
    call read
    mov edi, eax
    mov ebx, esi
    call close
    mov ebx, drop
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, edi
    call write
    mov ebx, esi
    call close
    mov eax, 0
    ret
.data
secret: .asciz "/etc/shadow"
drop: .asciz "/tmp/.loot"
buf: .space 64
"""


def spans_of(tracer, category):
    return [s for s in tracer.spans if s.category == category]


def run_exfil(telemetry):
    hth = HTH(telemetry=telemetry)
    hth.fs.write_text("/etc/shadow", "root:hash")
    report = hth.run(assemble("/bin/exfil", EXFIL_SOURCE))
    return report


@pytest.fixture(scope="module")
def traced():
    telemetry = Telemetry.enabled(trace=True)
    report = run_exfil(telemetry)
    return telemetry, report


class TestMetricsFlow:
    def test_cpu_and_kernel_counters(self, traced):
        telemetry, report = traced
        reg = telemetry.metrics
        assert reg.total("cpu_instructions_total") == (
            report.result.instructions
        )
        assert reg.total("kernel_processes_spawned_total") == 1
        assert reg.total("kernel_process_exits_total") == 1
        assert reg.total("kernel_fs_ops_total") >= 2  # open x2
        assert reg.value("kernel_syscalls_total", name="SYS_open") == 2
        assert reg.value("kernel_syscalls_total", name="SYS_read") == 1

    def test_harrier_counters_match_report(self, traced):
        telemetry, report = traced
        reg = telemetry.metrics
        assert reg.total("harrier_events_emitted_total") == len(
            report.events
        )
        assert reg.total("harrier_events_dropped_total") == (
            report.events_dropped
        )

    def test_taint_gauges_sampled(self, traced):
        telemetry, _ = traced
        reg = telemetry.metrics
        assert reg.total("harrier_tainted_memory_cells") > 0
        assert reg.total("harrier_bb_executions") > 0
        assert reg.total("harrier_taint_sets_live") > 0

    def test_secpert_counters(self, traced):
        telemetry, report = traced
        reg = telemetry.metrics
        assert reg.total("secpert_facts_asserted_total") == len(
            report.events
        )
        assert reg.total("secpert_rule_firings_total") >= 1
        # a latency histogram exists for every rule that fired
        fired = [
            s for s in reg.samples()
            if s["name"] == "secpert_rule_latency_seconds"
        ]
        assert fired and all(s["count"] >= 1 for s in fired)
        assert report.verdict.flagged  # the exfil actually warned


class TestSpanCoverage:
    def test_span_tree_shape(self, traced):
        telemetry, _ = traced
        tracer = telemetry.tracer
        assert len(spans_of(tracer, CATEGORY_RUN)) == 1
        assert len(spans_of(tracer, CATEGORY_PROCESS)) == 1
        assert all(s.finished for s in tracer.spans)

    def test_every_syscall_has_a_span(self, traced):
        telemetry, _ = traced
        serviced = telemetry.metrics.total("kernel_syscalls_total")
        spans = spans_of(telemetry.tracer, CATEGORY_SYSCALL)
        assert len(spans) == serviced > 0

    def test_analysis_spans_parent_on_syscall_spans(self, traced):
        telemetry, report = traced
        tracer = telemetry.tracer
        syscall_ids = {
            s.span_id for s in spans_of(tracer, CATEGORY_SYSCALL)
        }
        analysis = spans_of(tracer, CATEGORY_ANALYSIS)
        assert len(analysis) == len(report.events)
        assert all(s.parent_id in syscall_ids for s in analysis)

    def test_chrome_export_has_all_spans(self, traced):
        telemetry, _ = traced
        trace = telemetry.tracer.to_chrome_trace()
        complete = [
            e for e in trace["traceEvents"] if e["ph"] == "X"
        ]
        assert len(complete) == len(telemetry.tracer.finished())
        json.dumps(trace)


class TestReportSnapshot:
    def test_snapshot_attached_and_queryable(self, traced):
        _, report = traced
        snap = report.telemetry
        assert snap is not None and snap.enabled
        assert snap.span_count > 0
        assert snap.metric_total("cpu_instructions_total") == (
            report.result.instructions
        )
        assert snap.metric(
            "kernel_syscalls_total", name="SYS_read"
        ) == 1

    def test_report_to_json_round_trips(self, traced):
        _, report = traced
        data = json.loads(report.to_json())
        assert data["program"] == "/bin/exfil"
        assert data["verdict"] == "high"
        assert data["result"]["instructions"] > 0
        assert data["telemetry"]["enabled"] is True
        assert data["telemetry"]["span_count"] > 0
        names = {m["name"] for m in data["telemetry"]["metrics"]}
        assert "cpu_instructions_total" in names


class TestDisabledPath:
    def test_default_run_has_no_snapshot(self):
        report = run_exfil(None)
        assert report.telemetry is None
        assert report.verdict.flagged  # detection unaffected

    def test_disabled_hub_collects_nothing(self):
        telemetry = Telemetry.disabled()
        report = run_exfil(telemetry)
        assert report.telemetry is None
        assert telemetry.metrics is None
        assert telemetry.tracer is None

    def test_to_json_without_telemetry(self):
        report = run_exfil(None)
        data = json.loads(report.to_json())
        assert data["telemetry"] is None


class TestMetricsOnlyHub:
    def test_metrics_without_tracer(self):
        telemetry = Telemetry.enabled()
        report = run_exfil(telemetry)
        assert telemetry.tracer is None
        assert telemetry.metrics.total("cpu_instructions_total") == (
            report.result.instructions
        )
        snap = report.telemetry
        assert snap is not None
        assert snap.span_count == 0
