"""Equivalence harness for the mining engine.

The contract under test: for any forest and any parameters, engine
output is *identical* to the serial reference paths — for any
``jobs=`` value (an inert input) and for repeated batches on one
engine.  Frequent-pair comparisons are strict (every field, including
the non-``compare`` ones), so any ordering divergence fails loudly.
"""

from __future__ import annotations

import pytest

from repro.core.multi_tree import mine_forest
from repro.core.params import MiningParams
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
        for repeat in ("first", "repeat"):
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
            assert strict(result) == strict(reference), repeat

    def test_one_engine_serves_the_whole_grid(self, forest):
        # One engine, every grid point forwards then backwards: no
        # grid point may see state left by an earlier one.
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
        per_tree = [
            counts.items() for counts in engine.mine(forest, MiningParams())
        ]
        assert per_tree == [mine_tree(tree) for tree in forest]

    def test_counters_match_reference(self, forest, jobs):
        engine = MiningEngine(jobs=jobs)
        params = MiningParams(maxdist=2.0, max_generation_gap=2)
        counters = [
            counts.to_counter() for counts in engine.mine(forest, params)
        ]
        assert counters == [
            mine_tree_counter(tree, 2.0, 2, None) for tree in forest
        ]

    def test_empty_forest(self, jobs):
        engine = MiningEngine(jobs=jobs)
        assert engine.mine([], MiningParams()) == []
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
        (counts,) = engine.mine([Tree()], MiningParams())
        assert counts.to_counter() == mine_tree_counter(Tree())
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
    def test_reset(self, forest):
        engine = MiningEngine()
        engine.mine(forest, MiningParams())
        engine.stats.reset()
        assert engine.stats.trees_seen == 0
        assert engine.stats.batches == 0

    def test_describe_mentions_counts(self, forest):
        engine = MiningEngine()
        engine.mine(forest, MiningParams())
        text = engine.stats.describe()
        assert f"{len(forest)} tree(s) mined" in text and "1 batch(es)" in text


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
            assert [
                counts.items() for counts in engine.mine(forest, MiningParams())
            ] == expected
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

    @pytest.mark.parametrize("knob", ["cache", "cache_size"])
    def test_no_cache_knobs(self, knob):
        with pytest.raises(TypeError):
            MiningEngine(**{knob: None})

    def test_returned_counters_are_copies(self):
        tree = parse_newick("((a,b),(c,d));")
        engine = MiningEngine()
        (first,) = engine.mine([tree], MiningParams())
        counter = first.to_counter()
        counter.clear()  # corrupting the copy must not touch the counts
        assert first.to_counter() == mine_tree_counter(tree)
