"""Metrics registry: instruments, labels, the NullSink contract."""

import pytest

from repro.telemetry import MetricsRegistry, NullSink
from repro.telemetry.metrics import _NULL_INSTRUMENT


class TestCounter:
    def test_inc_defaults_to_one(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_decrease(self):
        c = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_handle(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_label_sets_are_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("syscalls_total", name="SYS_open")
        b = reg.counter("syscalls_total", name="SYS_read")
        a.inc(3)
        b.inc()
        assert a is not b
        assert reg.value("syscalls_total", name="SYS_open") == 3
        assert reg.total("syscalls_total") == 4

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("m", x="1", y="2")
        b = reg.counter("m", y="2", x="1")
        assert a is b


class TestGauge:
    def test_set_inc(self):
        g = MetricsRegistry().gauge("live_cells")
        g.set(10)
        g.inc(5)
        g.inc(-2)
        assert g.value == 13

    def test_gauge_and_counter_namespaces_are_separate(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(7)
        reg.gauge("n").set(1)
        assert reg.total("n") == 8  # both kinds sum in total()


class TestHistogram:
    def test_summary_statistics(self):
        h = MetricsRegistry().histogram("latency_seconds")
        for v in (0.5, 1.5, 1.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 3.0
        assert h.min == 0.5
        assert h.max == 1.5
        assert h.mean == 1.0

    def test_bucket_overflow_counts(self):
        h = MetricsRegistry().histogram("latency_seconds")
        h.observe(1e6)  # beyond the last bound -> overflow bucket
        assert h.bucket_counts[-1] == 1

    def test_empty_histogram_mean(self):
        assert MetricsRegistry().histogram("h").mean == 0.0


class TestRegistryReading:
    def test_value_of_untouched_metric_is_none(self):
        assert MetricsRegistry().value("never") is None

    def test_samples_are_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c", k="v").inc()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(0.5)
        samples = json.loads(json.dumps(reg.samples()))
        by_name = {s["name"]: s for s in samples}
        assert by_name["c"]["labels"] == {"k": "v"}
        assert by_name["c"]["value"] == 1
        assert by_name["g"]["value"] == 2
        assert by_name["h"]["count"] == 1
        assert by_name["h"]["mean"] == 0.5

    def test_render_mentions_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("alpha_total").inc()
        reg.histogram("beta_seconds", rule="r1").observe(0.1)
        text = reg.render()
        assert "alpha_total 1" in text
        assert "beta_seconds{rule=r1}" in text

    def test_len_counts_instruments(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.counter("a", l="1")
        reg.gauge("b")
        assert len(reg) == 3


class TestNullSink:
    def test_disabled_flag(self):
        assert NullSink().enabled is False
        assert MetricsRegistry().enabled is True

    def test_all_instruments_are_the_shared_noop(self):
        sink = NullSink()
        assert sink.counter("a") is _NULL_INSTRUMENT
        assert sink.gauge("b", l="1") is _NULL_INSTRUMENT
        assert sink.histogram("c") is _NULL_INSTRUMENT

    def test_noop_instrument_accepts_all_updates(self):
        sink = NullSink()
        sink.counter("a").inc(5)
        sink.gauge("b").set(3)
        sink.histogram("c").observe(1.0)
        assert sink.samples() == []
        assert sink.total("a") == 0.0
        assert sink.value("a") is None
        assert len(sink) == 0
