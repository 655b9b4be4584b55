"""Equivalence harness for the mining engine.

The contract under test: for any forest and any parameters, engine
output is *identical* to the serial reference paths — for any
``jobs=`` value (an inert input) and for both cold and warm caches.
Frequent-pair comparisons are strict (every field, including the
non-``compare`` ones), so any ordering, pickling or cache divergence
fails loudly.
"""

from __future__ import annotations

import pytest

from repro.core.multi_tree import mine_forest
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
        engine = MiningEngine(jobs=jobs)
        for temperature in ("cold", "warm"):
            result = mine_forest(
                forest,
                maxdist=maxdist,
                minoccur=minoccur,
                minsup=minsup,
                ignore_distance=ignore,
                max_generation_gap=gap,
                max_height=height,
                engine=engine,
            )
            assert strict(result) == strict(reference), temperature

    def test_one_engine_serves_the_whole_grid(self, forest):
        # One engine, every grid point forwards then backwards: the
        # whole-forest memo must key on every threshold, or a later
        # grid point is served an earlier point's answer.
        engine = MiningEngine()
        for grid in PARAM_GRID + PARAM_GRID[::-1]:
            maxdist, minoccur, minsup, ignore, gap, height = grid
            knobs = dict(
                maxdist=maxdist,
                minoccur=minoccur,
                minsup=minsup,
                ignore_distance=ignore,
                max_generation_gap=gap,
                max_height=height,
            )
            assert strict(mine_forest(forest, engine=engine, **knobs)) == strict(
                mine_forest_reference(forest, **knobs)
            ), grid

    def test_order_follows_input(self, forest, jobs):
        engine = MiningEngine(jobs=jobs)
        per_tree = engine.items(forest)
        assert per_tree == [mine_tree(tree) for tree in forest]

    def test_counters_match_reference(self, forest, jobs):
        engine = MiningEngine(jobs=jobs)
        counters = engine.counters(forest, maxdist=2.0, max_generation_gap=2)
        assert counters == [
            mine_tree_counter(tree, 2.0, 2, None) for tree in forest
        ]

    def test_empty_forest(self, jobs):
        engine = MiningEngine(jobs=jobs)
        assert engine.counters([]) == []
        assert mine_forest([], engine=engine) == []
        for minsup, ignore in [(1, False), (1, True), (3, False)]:
            assert mine_forest(
                [], minsup=minsup, ignore_distance=ignore, engine=engine
            ) == mine_forest_reference(
                [], minsup=minsup, ignore_distance=ignore
            )

    def test_empty_tree(self, jobs):
        from repro.trees.tree import Tree

        engine = MiningEngine(jobs=jobs)
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
                mine_forest(
                    pairless, minsup=1, ignore_distance=ignore, engine=engine
                )
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
        assert stats.memory_hits + stats.misses == stats.trees_seen
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
        assert f"{len(forest)} tree(s)" in text and "miss" in text


class TestJobsResolution:
    def test_effective_jobs_one_never_spawns_a_pool(
        self, forest, monkeypatch
    ):
        import concurrent.futures

        def no_pool(self, *args, **kwargs):
            raise AssertionError("the engine must not start a process pool")

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "__init__", no_pool
        )
        expected = [mine_tree(tree) for tree in forest]
        for jobs in (None, 1, 4):
            engine = MiningEngine(jobs=jobs)
            assert engine.items(forest) == expected
            assert mine_forest(forest, engine=engine) == (
                mine_forest_reference(forest)
            )
            vectors = engine.distance_vectors(forest)
            assert engine.distance_matrix(vectors) == vectors.matrix()


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_bad_jobs_rejected(self, bad):
        with pytest.raises(EngineError, match="jobs"):
            MiningEngine(jobs=bad)

    def test_explicit_cache_excludes_cache_knobs(self):
        from repro.engine import PairSetCache

        cache = PairSetCache()
        with pytest.raises(EngineError, match="not both"):
            MiningEngine(cache=cache, cache_size=8)

    def test_returned_counters_are_copies(self):
        tree = parse_newick("((a,b),(c,d));")
        engine = MiningEngine()
        (first,) = engine.counters([tree])
        first.clear()  # corrupting the copy must not poison the cache
        (second,) = engine.counters([tree])
        assert second == mine_tree_counter(tree)
