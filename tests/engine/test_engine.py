"""Serial/parallel equivalence harness for the mining engine.

The contract under test: for any forest and any parameters, engine
output is *identical* to the serial reference paths — for every worker
count and for both cold and warm caches.  Frequent-pair comparisons
are strict (every field, including the non-``compare`` ones), so any
ordering, pickling or cache divergence fails loudly.
"""

from __future__ import annotations

import pytest

from repro.core.pairset import CousinPairSet
from repro.core.reference import mine_forest_reference
from repro.core.single_tree import mine_tree, mine_tree_counter
from repro.engine import MiningEngine
from repro.errors import EngineError
from repro.trees.newick import parse_newick

PARAM_GRID = [
    # (maxdist, minoccur, minsup, ignore_distance, gap, max_height)
    (1.5, 1, 2, False, 1, None),
    (0.0, 1, 1, False, 1, None),
    (2.5, 2, 2, False, 3, None),
    (1.5, 1, 2, True, 1, None),
    (2.0, 1, 3, False, 2, 1),
    # minoccur that masks every count away
    (1.5, 1000, 1, False, 1, None),
    (1.5, 1000, 1, True, 1, None),
    # ignore_distance with minoccur >= 2: summed before the filter
    (2.5, 2, 1, True, 3, None),
    # minsup above the tree count
    (1.5, 1, 100, False, 1, None),
]


def strict(patterns):
    """Every field of every FrequentCousinPair, compare=False included."""
    return [
        (
            p.label_a,
            p.label_b,
            p.distance,
            p.support,
            p.tree_indexes,
            p.total_occurrences,
        )
        for p in patterns
    ]


class TestForestEquivalence:
    @pytest.mark.parametrize("grid", PARAM_GRID)
    def test_cold_and_warm_match_serial(self, forest, jobs, grid):
        maxdist, minoccur, minsup, ignore, gap, height = grid
        reference = mine_forest_reference(
            forest,
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=minsup,
            ignore_distance=ignore,
            max_generation_gap=gap,
            max_height=height,
        )
        engine = MiningEngine(jobs=jobs, min_parallel_trees=1)
        for temperature in ("cold", "warm"):
            result = engine.mine_forest(
                forest,
                maxdist=maxdist,
                minoccur=minoccur,
                minsup=minsup,
                ignore_distance=ignore,
                max_generation_gap=gap,
                max_height=height,
            )
            assert strict(result) == strict(reference), temperature

    def test_order_follows_input(self, forest, jobs):
        engine = MiningEngine(jobs=jobs, min_parallel_trees=1)
        per_tree = engine.items(forest)
        assert per_tree == [mine_tree(tree) for tree in forest]

    def test_counters_match_reference(self, forest, jobs):
        engine = MiningEngine(jobs=jobs, min_parallel_trees=1)
        counters = engine.counters(forest, maxdist=2.0, max_generation_gap=2)
        assert counters == [
            mine_tree_counter(tree, 2.0, 2, None) for tree in forest
        ]

    def test_pair_sets_match_from_tree(self, forest, jobs):
        engine = MiningEngine(jobs=jobs, min_parallel_trees=1)
        sets = engine.pair_sets(forest, maxdist=1.5, minoccur=2)
        assert sets == [
            CousinPairSet.from_tree(tree, maxdist=1.5, minoccur=2)
            for tree in forest
        ]

    def test_empty_forest(self, jobs):
        engine = MiningEngine(jobs=jobs)
        assert engine.counters([]) == []
        assert engine.mine_forest([]) == []
        for minsup, ignore in [(1, False), (1, True), (3, False)]:
            assert engine.mine_forest(
                [], minsup=minsup, ignore_distance=ignore
            ) == mine_forest_reference(
                [], minsup=minsup, ignore_distance=ignore
            )

    def test_empty_tree(self, jobs):
        from repro.trees.tree import Tree

        engine = MiningEngine(jobs=jobs, min_parallel_trees=1)
        (counter,) = engine.counters([Tree()])
        assert counter == mine_tree_counter(Tree())
        # Trees without a single labelled cousin pair.
        pairless = [
            Tree(),
            parse_newick("(a);"),
            parse_newick("((,),(,));"),
            parse_newick("(a,(,));"),
        ]
        for ignore in (False, True):
            assert strict(
                engine.mine_forest(pairless, minsup=1, ignore_distance=ignore)
            ) == strict(
                mine_forest_reference(
                    pairless, minsup=1, ignore_distance=ignore
                )
            ) == []


class TestStatsAccounting:
    def test_lookups_partition_into_hits_and_misses(self, forest):
        engine = MiningEngine()
        engine.items(forest)
        stats = engine.stats
        assert stats.trees_seen == len(forest)
        assert stats.memory_hits + stats.disk_hits + stats.misses == (
            stats.trees_seen
        )
        # The forest holds one isomorphic duplicate -> one in-batch hit.
        assert stats.misses == len(forest) - 1
        assert stats.memory_hits == 1

    def test_warm_run_has_no_new_misses(self, forest):
        engine = MiningEngine()
        engine.items(forest)
        cold_misses = engine.stats.misses
        engine.items(forest)
        assert engine.stats.misses == cold_misses
        assert engine.stats.hit_rate > 0.5
        assert engine.stats.batches == 2

    def test_reset(self, forest):
        engine = MiningEngine()
        engine.items(forest)
        engine.stats.reset()
        assert engine.stats.trees_seen == 0
        assert engine.stats.as_dict()["misses"] == 0

    def test_describe_mentions_counts(self, forest):
        engine = MiningEngine()
        engine.items(forest)
        text = engine.stats.describe()
        assert "lookup" in text and "miss" in text


class TestParallelDispatch:
    # clamp_jobs=False forces the pool even on a 1-CPU box, where the
    # default clamp would (correctly) take the serial path.
    def test_pool_engaged_above_threshold(self, forest):
        engine = MiningEngine(jobs=2, min_parallel_trees=1, clamp_jobs=False)
        engine.items(forest)
        assert engine.stats.parallel_batches == 1
        assert engine.stats.chunks >= 2

    def test_serial_fallback_below_threshold(self, forest):
        engine = MiningEngine(jobs=2, min_parallel_trees=100, clamp_jobs=False)
        engine.items(forest)
        assert engine.stats.parallel_batches == 0

    def test_warm_parallel_batch_does_not_respawn_pool(self, forest):
        engine = MiningEngine(jobs=2, min_parallel_trees=1, clamp_jobs=False)
        engine.items(forest)
        engine.items(forest)  # all hits: nothing to mine
        assert engine.stats.parallel_batches == 1


class TestJobsResolution:
    def test_default_jobs_tracks_available_cpus(self):
        from repro.engine.engine import available_cpus

        engine = MiningEngine()
        assert engine.jobs == available_cpus()
        assert engine.requested_jobs == available_cpus()

    def test_requested_jobs_clamped_to_available(self):
        from repro.engine.engine import available_cpus

        engine = MiningEngine(jobs=10_000)
        assert engine.requested_jobs == 10_000
        assert engine.jobs == min(10_000, available_cpus())

    def test_clamp_can_be_disabled(self):
        engine = MiningEngine(jobs=10_000, clamp_jobs=False)
        assert engine.jobs == 10_000

    def test_effective_jobs_one_never_spawns_a_pool(self, forest):
        engine = MiningEngine(jobs=1, min_parallel_trees=1)
        engine.items(forest)
        assert engine.stats.parallel_batches == 0
        assert engine.stats.chunks == 0

    def test_available_cpus_is_positive(self):
        from repro.engine.engine import available_cpus

        assert available_cpus() >= 1


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_bad_jobs_rejected(self, bad):
        with pytest.raises(EngineError, match="jobs"):
            MiningEngine(jobs=bad)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(EngineError):
            MiningEngine(min_parallel_trees=0)
        with pytest.raises(EngineError):
            MiningEngine(chunks_per_job=0)

    def test_explicit_cache_excludes_cache_knobs(self, tmp_path):
        from repro.engine import PairSetCache

        cache = PairSetCache()
        with pytest.raises(EngineError, match="not both"):
            MiningEngine(cache=cache, cache_dir=str(tmp_path))

    def test_returned_counters_are_copies(self):
        tree = parse_newick("((a,b),(c,d));")
        engine = MiningEngine()
        (first,) = engine.counters([tree])
        first.clear()  # corrupting the copy must not poison the cache
        (second,) = engine.counters([tree])
        assert second == mine_tree_counter(tree)
