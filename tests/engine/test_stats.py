"""EngineStats as a registry view: describe gating, reset, field names."""

from __future__ import annotations

import pytest

from repro.core.distance import tree_distance
from repro.engine import MiningEngine
from repro.engine.stats import EngineStats
from repro.obs.metrics import MetricsRegistry
from repro.trees.newick import parse_newick


class TestDescribeDistanceGate:
    def test_silent_without_any_distance_activity(self):
        assert "distance:" not in EngineStats().describe()

    def test_pair_counters_alone_trigger_the_section(self):
        stats = EngineStats()
        stats.distance_pairs_pruned += 1
        assert "distance: 0 pair join(s), 1 pruned" in stats.describe()

    def test_zero_work_build_still_reports_distance(self):
        # Regression: a distance run whose every pair was pruned (or
        # that compared trees with no cousin pairs at all) used to
        # vanish from describe(); the builds counter keeps it visible.
        stats = EngineStats()
        stats.distance_builds += 1
        text = stats.describe()
        assert "distance: 0 pair join(s), 0 pruned" in text

    def test_tree_distance_run_reports_distance_line(self):
        # End to end: single-node trees share no cousin pairs, so every
        # distance counter stays zero — only the build marks the run.
        engine = MiningEngine(jobs=1)
        value = tree_distance(
            parse_newick("(a);"), parse_newick("(b);"), engine=engine
        )
        assert value == pytest.approx(0.0)
        assert engine.stats.distance_pairs_computed == 0
        assert engine.stats.distance_builds == 1
        assert "distance:" in engine.stats.describe()


class TestRegistryView:
    def test_reset_resets_the_backing_registry(self):
        registry = MetricsRegistry()
        stats = EngineStats(registry)
        stats.batches += 3
        stats.mine_seconds += 0.5
        registry.counter("store.read_errors").add(2)  # outside the facade
        stats.reset()
        assert stats.batches == 0
        assert stats.mine_seconds == 0.0
        snapshot = registry.snapshot()
        assert all(
            value == 0 for value in snapshot["counters"].values()
        )
        assert all(
            payload["count"] == 0
            for payload in snapshot["histograms"].values()
        )

    def test_fields_are_registry_backed_both_ways(self):
        registry = MetricsRegistry()
        stats = EngineStats(registry)
        stats.batches += 2
        assert registry.counter("engine.batches").value == 2
        registry.counter("engine.lookups").add(4)
        assert stats.trees_seen == 4

    def test_two_views_over_one_registry_agree(self):
        registry = MetricsRegistry()
        first = EngineStats(registry)
        first.batches += 1
        second = EngineStats(registry)
        assert second.batches == 1
        assert second.describe() == first.describe()

    def test_seconds_assignment_restarts_the_distribution(self):
        stats = EngineStats()
        histogram = stats.registry.histogram("engine.mine.seconds")
        histogram.observe(1.0)
        histogram.observe(2.0)
        assert stats.mine_seconds == pytest.approx(3.0)
        # Assignment replaces the accumulated total outright.
        stats.mine_seconds = 0.25
        assert stats.mine_seconds == pytest.approx(0.25)
        assert histogram.count == 1

    def test_delta_fields_present_and_zero_by_default(self):
        stats = EngineStats()
        counters = stats.registry.snapshot()["counters"]
        for field, metric in (
            ("delta_updates", "engine.delta.updates"),
            ("delta_trees_added", "engine.delta.trees_added"),
            ("delta_trees_removed", "engine.delta.trees_removed"),
            ("delta_rows_patched", "engine.delta.rows_patched"),
            ("delta_supports_patched", "engine.delta.supports_patched"),
        ):
            assert getattr(stats, field) == 0
            assert counters[metric] == 0

    def test_describe_delta_gate(self):
        stats = EngineStats()
        assert "delta:" not in stats.describe()
        stats.delta_updates += 2
        stats.delta_trees_added += 3
        assert "delta: 2 update(s), +3/-0 tree(s)" in stats.describe()

