"""Unit tests for metric primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g", initial=5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0
        gauge.set(10.0)
        assert gauge.value == 10.0


class TestHistogram:
    def test_basic_stats(self):
        histogram = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.quantile(0.5) == 2.5

    def test_quantile_bounds(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Histogram("h").observe(float("nan"))

    def test_empty_histogram_quantile_is_none_not_zero(self):
        # A silent 0.0 would make an empty RTT histogram look perfectly
        # healthy to SLI consumers; "no data" must stay distinguishable.
        histogram = Histogram("h")
        assert histogram.mean == 0.0
        assert histogram.quantile(0.9) is None
        assert histogram.snapshot()["p95"] is None
        histogram.observe(3.0)
        assert histogram.quantile(0.9) == 3.0

    def test_quantile_rejects_negative(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_single_observation_answers_every_quantile(self):
        histogram = Histogram("h")
        histogram.observe(7.0)
        assert histogram.quantile(0.0) == 7.0
        assert histogram.quantile(0.5) == 7.0
        assert histogram.quantile(1.0) == 7.0

    def test_extreme_quantiles_hit_min_and_max(self):
        histogram = Histogram("h")
        for value in (5.0, 1.0, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 5.0

    def test_interpolation_between_adjacent_samples(self):
        histogram = Histogram("h")
        histogram.observe(0.0)
        histogram.observe(10.0)
        assert histogram.quantile(0.25) == 2.5
        assert histogram.quantile(0.5) == 5.0

    def test_duplicate_values_do_not_interpolate_drift(self):
        histogram = Histogram("h")
        for value in (2.0, 2.0, 2.0, 8.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 2.0
        assert histogram.quantile(1.0) == 8.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=100))
    def test_quantiles_are_monotone(self, values):
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        for lower, higher in zip(quantiles, quantiles[1:]):
            assert higher >= lower - 1e-9
        assert quantiles[0] == histogram.min
        assert quantiles[-1] == histogram.max

    def test_read_sorts_once_then_reuses_the_order(self):
        histogram = Histogram("h")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram.min == 1.0
        sorted_list = histogram._values
        assert sorted_list == [1.0, 2.0, 3.0]
        histogram.observe(0.5)
        assert histogram.quantile(0.0) == 0.5
        assert histogram._values is sorted_list


_READS = ("count", "mean", "min", "max", "snapshot", "quantile")


def _expected(read: str, q: float, seen: list):
    """The statistic recomputed from scratch over ``sorted(seen)``."""
    ordered = sorted(seen)
    n = len(ordered)

    def quantile(q):
        if not n:
            return None
        idx = q * (n - 1)
        lo, hi = math.floor(idx), math.ceil(idx)
        if lo == hi or ordered[lo] == ordered[hi]:
            return ordered[lo]
        return ordered[lo] * (1 - (idx - lo)) + ordered[hi] * (idx - lo)

    mean = sum(seen) / n if n else 0.0
    low = ordered[0] if n else 0.0
    high = ordered[-1] if n else 0.0
    if read == "count":
        return n
    if read == "mean":
        return mean
    if read == "min":
        return low
    if read == "max":
        return high
    if read == "quantile":
        return quantile(q)
    return {"type": "histogram", "count": n, "mean": mean, "min": low,
            "max": high, "p50": quantile(0.5), "p95": quantile(0.95),
            "p99": quantile(0.99)}


class TestHistogramReadsAfterAppends:
    """Observations append; reads sort on demand.  Any interleaving must
    answer exactly as a sorted list of everything seen so far would."""

    @given(st.lists(st.one_of(
        st.tuples(st.just("observe"),
                  st.floats(min_value=-1e6, max_value=1e6)),
        st.tuples(st.sampled_from(_READS),
                  st.floats(min_value=0.0, max_value=1.0)),
    ), max_size=60))
    def test_any_interleaving_matches_a_fresh_sort(self, steps):
        histogram = Histogram("h")
        watched: list = []
        histogram.subscribe(watched.append)
        seen: list = []
        for op, arg in steps:
            if op == "observe":
                histogram.observe(arg)
                seen.append(arg)
                continue
            if op == "quantile":
                got = histogram.quantile(arg)
            elif op == "snapshot":
                got = histogram.snapshot()
            else:
                got = getattr(histogram, op)
            assert got == _expected(op, arg, seen)
        assert watched == seen

    def test_append_from_a_watcher_after_a_read_is_not_skipped(self):
        histogram = Histogram("h")

        def read_then_observe(value):
            if value == 5.0:
                assert histogram.max == 5.0     # sorts 2 values
                histogram.observe(9.0)          # lands after that sort

        histogram.observe(1.0)
        histogram.subscribe(read_then_observe)
        histogram.observe(5.0)
        assert histogram.count == 3
        assert histogram.max == 9.0
        assert histogram.quantile(0.5) == 5.0

    @pytest.mark.parametrize("lands, this_read", [("before", 3.0),
                                                   ("after", 4.0)])
    def test_append_racing_the_sort_is_not_skipped(self, lands, this_read):
        histogram = Histogram("h")
        raced = []

        class ObservesDuringSort(list):
            # The hook runs after the read captured its length: one
            # observation lands just before or just after the sort.
            def sort(self, *args, **kwargs):
                if lands == "after":
                    super().sort(*args, **kwargs)
                if not raced:
                    raced.append(0.5)
                    histogram.observe(0.5)
                if lands == "before":
                    super().sort(*args, **kwargs)

        for value in (4.0, 2.0, 3.0):
            histogram.observe(value)
        histogram._values = ObservesDuringSort(histogram._values)
        # The racing read answers from the first n = 3 slots, which are
        # sorted either way.
        assert histogram.quantile(1.0) == this_read
        assert histogram.count == 4
        assert histogram.min == 0.5
        assert histogram.max == 4.0
        assert histogram.quantile(0.5) == 2.5


class TestTimeSeries:
    def test_records_in_order(self):
        series = TimeSeries("ts")
        series.record(0.0, 1.0)
        series.record(1.0, 3.0)
        assert series.last() == 3.0
        assert series.peak() == 3.0
        with pytest.raises(ValueError):
            series.record(0.5, 2.0)

    def test_time_above_step_interpolation(self):
        series = TimeSeries("ts")
        series.record(0.0, 5.0)   # above until t=2
        series.record(2.0, 1.0)   # below until t=3
        series.record(3.0, 10.0)  # above but no following sample
        assert series.time_above(4.0) == 2.0


class TestRegistry:
    def test_get_or_create_caches(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_and_value(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("level").set(7.0)
        snapshot = registry.snapshot()
        assert snapshot["hits"]["value"] == 3
        assert registry.value("level") == 7.0
        assert registry.value("missing", default=-1.0) == -1.0
