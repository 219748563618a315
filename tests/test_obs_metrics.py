"""Tests for the process-wide metrics registry and its export surfaces."""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.export import render_prometheus, snapshot
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricError,
    MetricsRegistry,
    get_registry,
)

try:
    import numpy
except ImportError:  # pragma: no cover - the no-numpy CI leg
    numpy = None

_settings = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


class TestRegistry:
    def test_counter_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("test_total", "a counter")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4.0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("test_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = MetricsRegistry().gauge("test_gauge")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4.0

    def test_labels_fan_out_into_independent_children(self):
        counter = MetricsRegistry().counter("test_total", labelnames=("op",))
        counter.labels(op="a").inc()
        counter.labels(op="a").inc()
        counter.labels(op="b").inc()
        assert counter.labels("a").value == 2.0
        assert counter.labels("b").value == 1.0

    def test_labeled_family_rejects_bare_updates(self):
        counter = MetricsRegistry().counter("test_total", labelnames=("op",))
        with pytest.raises(MetricError):
            counter.inc()

    def test_reregistration_same_shape_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("test_total", labelnames=("op",))
        second = registry.counter("test_total", labelnames=("op",))
        assert first is second

    def test_reregistration_conflicting_shape_raises(self):
        registry = MetricsRegistry()
        registry.counter("test_total", labelnames=("op",))
        with pytest.raises(MetricError):
            registry.gauge("test_total")
        with pytest.raises(MetricError):
            registry.counter("test_total", labelnames=("other",))
        registry.histogram("test_seconds")
        with pytest.raises(MetricError):
            registry.histogram("test_seconds", buckets=(1.0, 2.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("0bad")
        with pytest.raises(MetricError):
            registry.counter("ok_total", labelnames=("bad-label",))
        with pytest.raises(MetricError):
            registry.counter("ok_total", labelnames=("dup", "dup"))

    def test_default_registry_is_process_wide(self):
        assert get_registry() is get_registry()

    def test_reset_zeroes_but_keeps_registration(self):
        registry = MetricsRegistry()
        counter = registry.counter("test_total", labelnames=("op",))
        counter.labels(op="a").inc(7)
        registry.reset()
        assert counter.labels(op="a").value == 0.0
        assert registry.get("test_total") is counter


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self):
        histogram = Histogram((1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.5, 10.0):
            histogram.observe(value)
        assert histogram.cumulative_buckets() == [
            (1.0, 1), (2.0, 3), (5.0, 3), (float("inf"), 4),
        ]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(13.5)

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram(DEFAULT_BUCKETS).quantile(0.5) == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(MetricError):
            Histogram(DEFAULT_BUCKETS).quantile(1.5)

    def test_bounds_must_increase(self):
        with pytest.raises(MetricError):
            Histogram((1.0, 1.0))
        with pytest.raises(MetricError):
            Histogram(())

    def test_snapshot_carries_interpolated_quantiles(self):
        histogram = Histogram(DEFAULT_BUCKETS)
        for _ in range(100):
            histogram.observe(0.03)
        snap = histogram.snapshot()
        assert snap["count"] == 100
        # Every observation is in the (0.025, 0.05] bucket, so every
        # quantile interpolates inside it.
        for key in ("p50", "p90", "p99"):
            assert 0.025 <= snap[key] <= 0.05

    @pytest.mark.skipif(numpy is None, reason="needs numpy order statistics")
    @_settings
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200,
        ),
        q=st.sampled_from([0.5, 0.9, 0.99]),
    )
    def test_quantiles_within_one_bucket_of_order_statistic(self, values, q):
        """The estimate sits within one bucket of the rank-q observation.

        The histogram puts the q-quantile in the bucket holding the
        ``ceil(q * n)``-th smallest observation; numpy's *linear*
        ``percentile`` interpolates between samples and so can be far away
        when samples are sparse, but the order statistic at that rank (or
        its neighbour, for float-boundary ranks) must be within one bucket
        width of the estimate.
        """
        bounds = tuple(float(b) for b in range(1, 101))
        histogram = Histogram(bounds)
        for value in values:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        ordered = numpy.sort(numpy.asarray(values))
        rank = q * len(values)
        low = max(1, math.floor(rank))
        high = min(len(values), low + 1)
        nearby = (float(ordered[low - 1]), float(ordered[high - 1]))
        assert any(abs(estimate - target) <= 1.0 + 1e-9 for target in nearby)

    @pytest.mark.skipif(numpy is None, reason="needs numpy percentiles")
    def test_quantiles_track_numpy_percentiles_on_dense_data(self):
        """On a dense sample the estimate matches numpy's linear percentile
        to within one bucket width (rank conventions converge)."""
        bounds = tuple(float(b) for b in range(1, 101))
        histogram = Histogram(bounds)
        values = numpy.random.RandomState(7).uniform(0.0, 100.0, size=5_000)
        for value in values:
            histogram.observe(float(value))
        for q in (0.5, 0.9, 0.99):
            exact = float(numpy.percentile(values, q * 100.0))
            assert abs(histogram.quantile(q) - exact) <= 1.0 + 1e-9


class TestConcurrency:
    def test_eight_thread_hammer_loses_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", labelnames=("worker",))
        gauge = registry.gauge("hammer_inflight")
        histogram = registry.histogram("hammer_seconds", buckets=(0.5, 1.0))
        iterations = 5_000
        threads = 8

        def hammer(worker: int) -> None:
            child = counter.labels(worker=str(worker % 2))
            for index in range(iterations):
                child.inc()
                gauge.inc()
                gauge.dec()
                histogram.observe(0.25 if index % 2 else 0.75)

        pool = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        # Every increment survived: the two label children split the total
        # evenly, the gauge returned to zero, the histogram saw every
        # observation in the right bucket.
        assert counter.labels(worker="0").value == threads / 2 * iterations
        assert counter.labels(worker="1").value == threads / 2 * iterations
        assert gauge.value == 0.0
        observed = histogram.snapshot()["series"][0]
        assert observed["count"] == threads * iterations
        assert observed["buckets"][-1][1] == threads * iterations


class TestTimed:
    def test_plain_stopwatch(self):
        from repro.util.timing import timed

        with timed() as timer:
            inside = timer.elapsed()
        assert inside >= 0.0
        assert timer.seconds >= inside

    def test_observes_labeled_histogram_on_exit(self):
        from repro.util.timing import timed

        histogram = MetricsRegistry().histogram(
            "timed_seconds", labelnames=("phase",)
        )
        with timed(histogram, phase="build"):
            pass
        assert histogram.labels(phase="build").count == 1
        assert histogram.labels(phase="other").count == 0

    def test_observes_even_when_the_block_raises(self):
        from repro.util.timing import timed

        histogram = MetricsRegistry().histogram("timed_seconds")
        with pytest.raises(RuntimeError):
            with timed(histogram) as timer:
                raise RuntimeError("boom")
        assert timer.seconds > 0.0
        assert histogram.snapshot()["series"][0]["count"] == 1


class TestExport:
    def _example_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        requests = registry.counter(
            "demo_requests_total", "Requests by op.", labelnames=("op",)
        )
        requests.labels(op="recommend").inc(2)
        requests.labels(op="ping").inc()
        inflight = registry.gauge("demo_inflight", "In-flight requests.")
        inflight.set(1)
        seconds = registry.histogram(
            "demo_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        seconds.observe(0.05)
        seconds.observe(0.5)
        seconds.observe(5.0)
        return registry

    def test_golden_prometheus_exposition(self):
        """The exact text exposition a scraper sees, end to end."""
        assert render_prometheus(self._example_registry()) == (
            "# HELP demo_requests_total Requests by op.\n"
            "# TYPE demo_requests_total counter\n"
            'demo_requests_total{op="ping"} 1\n'
            'demo_requests_total{op="recommend"} 2\n'
            "# HELP demo_inflight In-flight requests.\n"
            "# TYPE demo_inflight gauge\n"
            "demo_inflight 1\n"
            "# HELP demo_seconds Latency.\n"
            "# TYPE demo_seconds histogram\n"
            'demo_seconds_bucket{le="0.1"} 1\n'
            'demo_seconds_bucket{le="1"} 2\n'
            'demo_seconds_bucket{le="+Inf"} 3\n'
            "demo_seconds_sum 5.55\n"
            "demo_seconds_count 3\n"
        )

    def test_empty_labeled_family_still_renders_headers(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "Nothing yet.", labelnames=("op",))
        assert render_prometheus(registry) == (
            "# HELP demo_total Nothing yet.\n"
            "# TYPE demo_total counter\n"
        )

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("demo_total", labelnames=("op",))
        counter.labels(op='a"b\\c\nd').inc()
        assert 'demo_total{op="a\\"b\\\\c\\nd"} 1' in render_prometheus(registry)

    def test_snapshot_shape(self):
        snap = snapshot(self._example_registry())
        by_name = {family["name"]: family for family in snap["families"]}
        assert by_name["demo_requests_total"]["type"] == "counter"
        series = by_name["demo_requests_total"]["series"]
        assert {"labels": {"op": "ping"}, "value": 1.0} in series
        histogram = by_name["demo_seconds"]["series"][0]
        assert histogram["count"] == 3
        assert histogram["buckets"][-1] == ["+Inf", 3]
        for key in ("p50", "p90", "p99"):
            assert key in histogram

    def test_instrument_catalog_registers_every_family_group(self):
        """Importing the catalog makes every subsystem's families visible."""
        import repro.obs.instruments  # noqa: F401

        text = render_prometheus()
        for family in (
            "repro_whatif_calls_total",
            "repro_build_seconds",
            "repro_selection_seconds",
            "repro_recommend_seconds",
            "repro_tier_lookups_total",
            "repro_serve_requests_total",
            "repro_online_poll_seconds",
        ):
            assert f"# TYPE {family}" in text
