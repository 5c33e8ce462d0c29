"""Tests for the metrics primitives (repro.observability.metrics)."""

import math
import threading

import pytest

from repro.errors import InvalidArgumentError
from repro.observability.metrics import (
    COUNTER,
    DEFAULT_BUCKETS,
    GAUGE,
    HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Timer,
)
from repro.util.clock import VirtualClock


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(InvalidArgumentError, match="only go up"):
            Counter().inc(-1)

    def test_reset(self):
        c = Counter()
        c.inc(7)
        c.reset()
        assert c.value == 0.0

    def test_thread_safety(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12

    def test_callback_gauge_reads_live_state(self):
        state = {"depth": 3}
        g = Gauge()
        g.set_function(lambda: state["depth"])
        assert g.value == 3
        state["depth"] = 9
        assert g.value == 9

    def test_set_clears_callback(self):
        g = Gauge()
        g.set_function(lambda: 42)
        g.set(1)
        assert g.value == 1

    def test_reset_preserves_callback_gauges(self):
        g = Gauge()
        g.set_function(lambda: 42)
        g.reset()
        assert g.value == 42  # live views cannot be zeroed

    def test_reset_zeroes_plain_gauges(self):
        g = Gauge()
        g.set(5)
        g.reset()
        assert g.value == 0.0


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.006)
        assert h.mean == pytest.approx(0.002)

    def test_cumulative_buckets(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        counts = dict(h.bucket_counts())
        assert counts[0.1] == 1
        assert counts[1.0] == 2
        assert counts[10.0] == 3
        assert counts[math.inf] == 4  # +Inf always holds the total

    def test_summary_tracks_min_max(self):
        h = Histogram()
        h.observe(0.2)
        h.observe(0.9)
        summary = h.summary()
        assert summary["min"] == pytest.approx(0.2)
        assert summary["max"] == pytest.approx(0.9)

    def test_reset(self):
        h = Histogram()
        h.observe(1.0)
        h.reset()
        assert h.count == 0
        assert h.sum == 0.0
        assert dict(h.bucket_counts())[math.inf] == 0

    def test_empty_buckets_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Histogram(buckets=())

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(InvalidArgumentError, match="distinct"):
            Histogram(buckets=(1.0, 1.0))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_non_finite_bounds_rejected(self, bound):
        """+Inf is implicit; accepting it as a bound exported the +Inf
        line twice (only -inf used to be caught)."""
        with pytest.raises(InvalidArgumentError, match="finite"):
            Histogram(buckets=(0.5, bound))
        with pytest.raises(InvalidArgumentError, match="finite"):
            Histogram(buckets=(bound,))

    def test_value_on_a_bound_lands_in_that_bucket(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for v in (0.1, 1.0, 10.0, -5.0, 10.000001):
            h.observe(v)
        assert h.bucket_counts() == [(0.1, 2), (1.0, 3), (10.0, 4), (math.inf, 5)]

    def test_buckets_match_the_linear_scan_they_replaced(self):
        bounds = (0.001, 0.01, 0.25, 1.0, 7.5)
        values = [0.0, 0.001, 0.0011, 0.2, 0.25, 0.9999, 1.0, 3.0, 7.5, 8.0, -1.0, math.inf, -math.inf, 1e300]
        h = Histogram(buckets=bounds)
        for v in values:
            h.observe(v)
        reference = [(b, sum(1 for v in values if v <= b)) for b in bounds] + [(math.inf, len(values))]
        assert h.bucket_counts() == reference

    def test_nan_observation_moves_count_and_sum_but_no_bucket(self):
        h = Histogram(buckets=(0.1, 1.0))
        h.observe(0.5)
        h.observe(math.nan)
        assert h.count == 2
        assert math.isnan(h.sum)
        assert h.bucket_counts() == [(0.1, 0), (1.0, 1), (math.inf, 2)]
        assert h.summary()["min"] == h.summary()["max"] == 0.5


class TestMetricFamily:
    def test_labelled_children_are_distinct(self):
        fam = MetricFamily("calls_total", COUNTER, "calls", ("procedure",))
        fam.labels(procedure="open").inc()
        fam.labels(procedure="open").inc()
        fam.labels(procedure="close").inc()
        assert fam.labels(procedure="open").value == 2
        assert fam.labels(procedure="close").value == 1

    def test_wrong_labels_rejected(self):
        fam = MetricFamily("x", COUNTER, "", ("a",))
        with pytest.raises(InvalidArgumentError, match="takes labels"):
            fam.labels(b="1")

    def test_repeat_lookups_return_the_same_child_and_still_validate(self):
        fam = MetricFamily("x", COUNTER, "", ("a", "b"))
        child = fam.labels(a="1", b="2")
        assert fam.labels(a="1", b="2") is child
        assert fam.labels(b="2", a="1") is child  # kwargs order is not identity
        for wrong in ({"a": "1"}, {"a": "1", "b": "2", "c": "3"}, {"a": "1", "c": "2"}, {}):
            for _ in range(2):  # first sight and repeat: a bad set is never remembered
                with pytest.raises(InvalidArgumentError, match="takes labels"):
                    fam.labels(**wrong)
        assert len(fam.children()) == 1

    def test_non_str_values_stringify_to_the_same_child_every_time(self):
        fam = MetricFamily("x", COUNTER, "", ("code",))
        text = fam.labels(code="1")
        for _ in range(2):
            assert fam.labels(code=1) is text
            # equal as dict keys, different as label values
            assert fam.labels(code=True) is fam.labels(code="True")
            assert fam.labels(code=1.0) is fam.labels(code="1.0")
            assert fam.labels(code=None) is fam.labels(code="None")
            assert fam.labels(code=["unhashable"]) is fam.labels(code="['unhashable']")
        assert [key for key, _ in fam.children()] == [
            ("1",), ("1.0",), ("None",), ("True",), ("['unhashable']",)
        ]

    def test_children_survive_reset_and_stay_memoised(self):
        fam = MetricFamily("x", COUNTER, "", ("a",))
        child = fam.labels(a="1")
        child.inc(3)
        fam.reset()
        assert fam.labels(a="1") is child and child.value == 0

    def test_concurrent_first_lookups_agree_on_one_child(self):
        fam = MetricFamily("x", COUNTER, "", ("a",))
        start = threading.Barrier(8)

        def hammer():
            start.wait(timeout=10)
            for i in range(2000):
                fam.labels(a=str(i % 50)).inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(fam.children()) == 50
        assert sum(child.value for _, child in fam.children()) == 8 * 2000

    def test_unlabelled_convenience_on_labelled_family_rejected(self):
        fam = MetricFamily("x", COUNTER, "", ("a",))
        with pytest.raises(InvalidArgumentError, match="labelled"):
            fam.inc()

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(InvalidArgumentError, match="invalid metric name"):
            MetricFamily("9bad", COUNTER, "", ())

    def test_invalid_label_name_rejected(self):
        with pytest.raises(InvalidArgumentError, match="invalid label name"):
            MetricFamily("ok", COUNTER, "", ("bad-label",))

    def test_samples_carry_label_dicts(self):
        fam = MetricFamily("x", GAUGE, "", ("a", "b"))
        fam.labels(a="1", b="2").set(5)
        [(labels, child)] = fam.samples()
        assert labels == {"a": "1", "b": "2"}
        assert child.value == 5


class TestMetricsRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        first = reg.counter("calls_total", "calls")
        second = reg.counter("calls_total", "calls")
        assert first is second

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", "")
        with pytest.raises(InvalidArgumentError, match="already registered"):
            reg.gauge("x", "")

    def test_label_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", "", ("a",))
        with pytest.raises(InvalidArgumentError, match="labels"):
            reg.counter("x", "", ("b",))

    def test_unknown_metric_lookup(self):
        with pytest.raises(InvalidArgumentError, match="no metric"):
            MetricsRegistry().get("nope")

    def test_contains(self):
        reg = MetricsRegistry()
        reg.gauge("depth", "")
        assert "depth" in reg
        assert "other" not in reg

    def test_families_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zed", "")
        reg.counter("alpha", "")
        assert [f.name for f in reg.families()] == ["alpha", "zed"]

    def test_snapshot_uses_virtual_clock(self):
        clock = VirtualClock()
        reg = MetricsRegistry(now=clock.now)
        clock.sleep(12.5)
        reg.counter("c", "").inc()
        snap = reg.snapshot()
        assert snap["timestamp"] == pytest.approx(12.5)
        assert snap["metrics"]["c"]["type"] == COUNTER
        assert snap["metrics"]["c"]["samples"][0]["value"] == 1

    def test_snapshot_histogram_summarized(self):
        reg = MetricsRegistry()
        reg.histogram("h", "").observe(0.5)
        sample = reg.snapshot()["metrics"]["h"]["samples"][0]
        assert sample["count"] == 1
        assert sample["sum"] == pytest.approx(0.5)
        assert reg.snapshot()["metrics"]["h"]["type"] == HISTOGRAM

    def test_reset_zeroes_everything_but_callbacks(self):
        reg = MetricsRegistry()
        reg.counter("c", "").inc(5)
        reg.histogram("h", "").observe(1.0)
        live = {"v": 7}
        reg.gauge("g", "").set_function(lambda: live["v"])
        reg.reset()
        assert reg.get("c").value == 0
        assert reg.get("h")._unlabelled().count == 0
        assert reg.get("g").value == 7

    def test_set_clock_rebinds(self):
        reg = MetricsRegistry()
        assert reg.now() == 0.0
        clock = VirtualClock()
        clock.sleep(3.0)
        reg.set_clock(clock.now)
        assert reg.now() == pytest.approx(3.0)


class TestTimer:
    def test_timer_observes_modelled_interval(self):
        clock = VirtualClock()
        reg = MetricsRegistry(now=clock.now)
        hist = reg.histogram("op_seconds", "")._unlabelled()
        with Timer(reg, hist) as timer:
            clock.sleep(0.25)
        assert timer.elapsed == pytest.approx(0.25)
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.25)
