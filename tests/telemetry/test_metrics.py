"""Metrics registry: instruments, labels, and the end-of-run sampler."""

import pytest

from repro.telemetry import MetricsRegistry, Sampler, Telemetry


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


class TestDisabledHub:
    def test_a_disabled_hub_has_no_registry(self):
        hub = Telemetry.disabled()
        assert hub.metrics is None and not hub.is_enabled
        assert hub.snapshot().metrics == []
        assert Telemetry.enabled().is_enabled


class _Layer:
    """A layer that keeps plain counts and offers them as readings."""

    def __init__(self):
        self.hits = 0
        self.level = 0
        self.tally = {}
        self.by_rule = {}

    def readings(self):
        yield "counter", "hits_total", {}, self.hits
        yield "gauge", "level", {}, self.level
        yield "histogram", "sizes", {}, ((10, 100), self.tally)
        for rule, count in self.by_rule.items():
            yield "counter", "fired_total", {"rule": rule}, count


class TestSampler:
    def test_counters_and_histograms_are_written_as_deltas(self):
        reg = MetricsRegistry()
        sampler = Sampler(reg)
        layer = _Layer()
        layer.hits, layer.level, layer.tally = 3, 7, {5: 2, 50: 1}
        sampler.sample([layer])
        layer.hits, layer.level, layer.tally = 4, 2, {5: 2, 50: 1, 500: 1}
        sampler.sample([layer])
        assert reg.value("hits_total") == 4
        assert reg.value("level") == 2
        sizes = reg.histogram("sizes")
        assert sizes.buckets == (10, 100)
        assert sizes.count == 4 and sizes.total == 560
        assert sizes.bucket_counts == [2, 1, 1]

    def test_zero_families_are_created(self):
        reg = MetricsRegistry()
        Sampler(reg).sample([_Layer()])
        assert reg.value("hits_total") == 0
        assert reg.histogram("sizes").count == 0
        assert reg.value("fired_total", rule="r") is None

    def test_two_samplers_on_one_registry_accumulate(self):
        reg = MetricsRegistry()
        for hits in (2, 5):
            layer = _Layer()
            layer.hits = hits
            layer.by_rule = {"r": 1}
            Sampler(reg).sample([layer])
        assert reg.value("hits_total") == 7
        assert reg.value("fired_total", rule="r") == 2

    def test_a_replaced_layer_counts_from_zero(self):
        reg = MetricsRegistry()
        sampler = Sampler(reg)
        old, new = _Layer(), _Layer()
        old.hits, new.hits = 5, 2
        sampler.sample([old])
        sampler.sample([new])
        assert reg.value("hits_total") == 7


class TestHistogramBuckets:
    def test_buckets_apply_when_the_call_creates_it(self):
        reg = MetricsRegistry()
        ticks = reg.histogram("ticks", (1, 2, 4), cpu="0")
        assert ticks.buckets == (1, 2, 4)
        assert reg.histogram("ticks", (8,), cpu="0") is ticks
        assert reg.histogram("latency").buckets[0] == 1e-6
