"""OpenMetrics text exposition: renderer and minimal validator.

``GET /metrics`` on the serve daemon serves exactly this rendering, so
these tests pin the format a stock Prometheus scraper depends on: TYPE
declarations, the ``_total`` family convention, cumulative ``le=``
buckets, label escaping, and the terminal ``# EOF``.
"""

from repro.telemetry.metrics import MetricsRegistry, render_openmetrics
from tests.oracles.openmetrics import validate_openmetrics


def registry_with_everything():
    registry = MetricsRegistry()
    registry.counter("serve_admitted_total", tenant="default").inc(3)
    registry.counter("serve_admitted_total", tenant="other").inc()
    registry.gauge("serve_queue_depth").set(2)
    hist = registry.histogram("serve_latency_seconds", stage="exec")
    for value in (0.0005, 0.0005, 0.02, 5.0):
        hist.observe(value)
    return registry


class TestRender:
    def test_renders_valid_openmetrics(self):
        text = render_openmetrics(registry_with_everything().samples())
        assert validate_openmetrics(text) == []

    def test_counter_family_drops_total_suffix(self):
        text = render_openmetrics(registry_with_everything().samples())
        assert "# TYPE serve_admitted counter" in text
        assert 'serve_admitted_total{tenant="default"} 3' in text
        assert 'serve_admitted_total{tenant="other"} 1' in text

    def test_gauge_sample(self):
        text = render_openmetrics(registry_with_everything().samples())
        assert "# TYPE serve_queue_depth gauge" in text
        assert "serve_queue_depth 2" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_openmetrics(registry_with_everything().samples())
        lines = text.splitlines()
        buckets = [
            line for line in lines
            if line.startswith("serve_latency_seconds_bucket")
        ]
        # cumulative counts never decrease and +Inf equals the count
        values = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert values == sorted(values)
        assert buckets[-1].startswith(
            'serve_latency_seconds_bucket{le="+Inf"'
        ) or 'le="+Inf"' in buckets[-1]
        assert values[-1] == 4
        assert "serve_latency_seconds_count" in text
        assert "serve_latency_seconds_sum" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "odd_total", path='a"b\\c\nd'
        ).inc()
        text = render_openmetrics(registry.samples())
        assert validate_openmetrics(text) == []
        assert '\\"b' in text and "\\\\c" in text and "\\n" in text

    def test_empty_registry_is_just_eof(self):
        text = render_openmetrics([])
        assert text == "# EOF\n"
        assert validate_openmetrics(text) == []


class TestValidate:
    def test_missing_eof(self):
        problems = validate_openmetrics("# TYPE a gauge\na 1\n")
        assert any("EOF" in p for p in problems)

    def test_sample_without_type_family(self):
        problems = validate_openmetrics("orphan 1\n# EOF")
        assert any("no TYPE family" in p for p in problems)

    def test_counter_sample_without_total_suffix(self):
        text = "# TYPE hits counter\nhits 1\n# EOF"
        problems = validate_openmetrics(text)
        assert any("lacks _total" in p for p in problems)

    def test_non_cumulative_buckets_flagged(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 5\n'
            'lat_bucket{le="1"} 3\n'
            'lat_bucket{le="+Inf"} 5\n'
            "lat_sum 1\n"
            "lat_count 5\n"
            "# EOF"
        )
        problems = validate_openmetrics(text)
        assert any("non-cumulative" in p for p in problems)

    def test_histogram_without_inf_bucket_flagged(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 5\n'
            "lat_sum 1\n"
            "lat_count 5\n"
            "# EOF"
        )
        problems = validate_openmetrics(text)
        assert any("+Inf" in p for p in problems)

    def test_unparsable_sample_flagged(self):
        problems = validate_openmetrics("# TYPE a gauge\na one\n# EOF")
        assert any("non-numeric" in p for p in problems)
