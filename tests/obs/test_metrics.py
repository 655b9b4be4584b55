"""Unit tests for the metrics layer (counters, gauges, histograms)."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
    stopwatch,
)


class TestCounterAndGauge:
    def test_counter_accumulates_and_resets(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.add()
        counter.add(4)
        assert counter.value == 5
        assert registry.counter("c") is counter  # get-or-create
        counter.reset()
        assert counter.value == 0

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(2.0)
        gauge.set(0.5)
        assert gauge.value == 0.5


class TestHistogram:
    def test_bucket_placement(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        # <=1.0 | <=10.0 | overflow
        assert histogram.bucket_counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(106.5)
        assert histogram.minimum == 0.5
        assert histogram.maximum == 100.0
        assert histogram.mean == pytest.approx(106.5 / 4)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=())

    def test_reset_in_place(self):
        histogram = Histogram("h")
        histogram.observe(0.25)
        counts = histogram.bucket_counts  # held reference
        histogram.reset()
        assert histogram.count == 0
        assert histogram.minimum is None and histogram.maximum is None
        assert counts is histogram.bucket_counts
        assert sum(counts) == 0


class TestRegistrySnapshots:
    def test_snapshot_is_plain_json(self):
        registry = MetricsRegistry()
        registry.counter("b").add(2)
        registry.counter("a").add(1)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.005)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert list(snapshot["counters"]) == ["a", "b"]  # sorted
        payload = snapshot["histograms"]["h"]
        assert payload["bounds"] == list(DEFAULT_SECONDS_BUCKETS)
        assert payload["count"] == 1
        assert payload["min"] == payload["max"] == 0.005

    def test_reset_keeps_references_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.add(5)
        registry.reset()
        assert registry.counter("c") is counter
        counter.add(1)
        assert registry.snapshot()["counters"]["c"] == 1


class TestTimers:
    def test_registry_time_observes_histogram(self):
        registry = MetricsRegistry()
        with registry.time("t.seconds") as timer:
            pass
        assert timer.seconds >= 0.0
        histogram = registry.histogram("t.seconds")
        assert histogram.count == 1
        assert histogram.total == pytest.approx(timer.seconds)

    def test_stopwatch_reads_elapsed(self):
        with stopwatch() as watch:
            total = sum(range(1000))
        assert total == 499500
        assert watch.seconds >= 0.0
