"""Tests for the dependency-free metrics primitives."""

import math

import numpy as np
import pytest

from repro.obs.exposition import render_text
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("events_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("events_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1.0)
        assert c.value == 0.0

    def test_monotonic_over_many_increments(self):
        c = Counter("events_total")
        previous = c.value
        for i in range(100):
            c.inc(i % 3)
            assert c.value >= previous
            previous = c.value


class TestGauge:
    def test_value_is_the_sum_of_its_readers(self):
        depth = {"a": 10, "b": 5}
        g = Gauge("depth")
        g.readers += [lambda: depth["a"], lambda: depth["b"]]
        assert g.value == 15.0
        depth["b"] = 2  # read, not copied: the next read sees the change
        assert g.value == 12.0

    def test_reader_can_go_negative(self):
        g = Gauge("delta")
        g.readers.append(lambda: -2)
        assert g.value == -2.0

    def test_gauge_is_read_only(self):
        g = Gauge("depth")
        assert not any(hasattr(g, name) for name in ("set", "inc", "dec"))
        assert not hasattr(MetricsRegistry(), "timer")


class TestHistogram:
    def test_bucket_bounds_inclusive(self):
        """Prometheus ``le`` semantics: value == bound lands in that bucket."""
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)  # le="1"
        h.observe(2.0)  # le="2"
        h.observe(2.000001)  # le="4"
        h.observe(5.0)  # +Inf overflow
        assert h.cumulative_counts() == [
            (1.0, 1),
            (2.0, 2),
            (4.0, 3),
            (math.inf, 4),
        ]

    def test_cumulative_counts_end_at_total(self):
        h = Histogram("lat", buckets=(0.5,))
        for v in (0.1, 0.2, 0.9, 100.0):
            h.observe(v)
        pairs = h.cumulative_counts()
        assert pairs[-1] == (math.inf, 4)
        assert pairs[-1][1] == h.count

    def test_sum_and_mean(self):
        h = Histogram("lat", buckets=(1.0,))
        assert math.isnan(h.mean)
        h.observe(0.5)
        h.observe(1.5)
        assert h.sum == 2.0
        assert h.mean == 1.0
        assert h.count == 2

    def test_buckets_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("lat", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("lat", buckets=(2.0, 1.0))

    def test_buckets_must_be_finite_and_nonempty(self):
        with pytest.raises(ValueError, match="finite"):
            Histogram("lat", buckets=(1.0, math.inf))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("lat", buckets=())

    def test_snapshot_shape(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == 0.5
        assert snap["mean"] == 0.5
        assert snap["buckets"]["+Inf"] == 1

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
    def test_observe_many_matches_an_observe_loop_and_keeps_plain_floats(
        self, as_array
    ):
        values = [0.25, 1.0, 1.5, 2.0, 7.0, 0.0, 3.999]
        looped = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in values:
            looped.observe(value)
        batched = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        batched.observe_many(np.asarray(values) if as_array else values)
        batched.observe_many(np.empty(0) if as_array else [])

        assert batched.cumulative_counts() == looped.cumulative_counts()
        assert batched.count == looped.count == len(values)
        assert batched.sum == looped.sum
        # A numpy.float64 here would leak into every snapshot and scrape.
        assert type(batched.sum) is float
        assert type(batched.mean) is float
        snap = batched.snapshot()
        assert type(snap["sum"]) is float and type(snap["mean"]) is float
        assert all(type(n) is int for n in snap["buckets"].values())

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-4
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0


class TestTimer:
    def test_observes_elapsed_on_exit(self):
        seen = []
        with Timer(seen.append) as t:
            pass
        assert len(seen) == 1
        assert seen[0] >= 0
        assert t.elapsed == seen[0]

    def test_observes_even_when_body_raises(self):
        seen = []
        with pytest.raises(RuntimeError):
            with Timer(seen.append):
                raise RuntimeError("boom")
        assert len(seen) == 1

    def test_histogram_time_integration(self):
        h = Histogram("lat", buckets=(10.0,))
        with h.time():
            pass
        assert h.count == 1


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total")
        b = reg.counter("hits_total")
        assert a is b

    def test_label_sets_are_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", shard=0)
        b = reg.counter("hits_total", shard=1)
        assert a is not b
        # Label order does not matter.
        x = reg.gauge("g", a="1", b="2")
        y = reg.gauge("g", b="2", a="1")
        assert x is y

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("thing")

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("lat", buckets=(1.0, 3.0))
        # Same buckets: fine, same object.
        assert reg.histogram("lat", buckets=(1.0, 2.0)) is reg.histogram(
            "lat", buckets=(1.0, 2.0)
        )

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            reg.counter("ok", **{"0bad": "x"})

    def test_snapshot_scalar_and_labeled(self):
        reg = MetricsRegistry()
        reg.counter("plain_total").inc(3)
        reg.counter("by_shard_total", shard=0).inc(1)
        reg.counter("by_shard_total", shard=1).inc(2)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["plain_total"] == 3.0
        assert snap["by_shard_total"] == {'shard="0"': 1.0, 'shard="1"': 2.0}
        assert snap["lat"]["count"] == 1

    def test_readers_sum_at_read_time_with_no_collector(self):
        reg = MetricsRegistry()
        state = {"packets": 3, "depth": 2}
        counter = reg.counter("packets_total", reader=lambda: state["packets"])
        gauge = reg.gauge("depth", reader=lambda: state["depth"], q="a")
        assert counter.value == 3 and gauge.value == 2
        state["packets"], state["depth"] = 10, 7
        assert counter.value == 10 and gauge.value == 7
        assert reg.snapshot() == {"packets_total": 10.0, "depth": {'q="a"': 7.0}}
        assert 'packets_total 10\n' in render_text(reg)
        assert 'depth{q="a"} 7\n' in render_text(reg)

    def test_second_reader_on_same_instrument_adds(self):
        reg = MetricsRegistry()
        first = reg.gauge("cdb_flows", reader=lambda: 82)
        second = reg.gauge("cdb_flows", reader=lambda: 38)
        assert first is second
        assert first.value == 120
        # A pushed amount adds to the readers' sum.
        counter = reg.counter("hits_total", reader=lambda: 4)
        counter.inc(2)
        assert counter.value == 6

    def test_lookup_without_reader_adds_none(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits_total", reader=lambda: 5, shard=0)
        assert reg.counter("hits_total", shard=0) is counter
        assert len(counter.readers) == 1
        assert counter.value == 5

    def test_len_counts_instruments(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        reg.counter("b_total", shard=0)
        reg.counter("b_total", shard=1)
        assert len(reg) == 3

    def test_no_child_registries(self):
        # One writer per engine: the scrape-time tree merge is gone.
        assert not hasattr(MetricsRegistry, "child")
