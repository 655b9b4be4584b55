"""Unit tests for the top-k similarity search (``repro.core.topk``)."""

import random

import numpy as np
import pytest

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.topk import (
    QueryVector,
    query_vector,
    topk_search,
    topk_similar,
    validate_k,
)
from repro.engine import MiningEngine
from repro.errors import MiningParameterError
from repro.generate.random_trees import SyntheticTreeParams, synthetic_forest
from repro.trees.newick import parse_newick
from repro.trees.tree import Tree

FOREST_NEWICKS = [
    "((a,b),(c,d));",
    "((a,b),(c,e));",
    "((a,c),(b,d));",
    "(((a,b),c),d);",
    "((x,y),(z,w));",
    "((a,b),(a,b));",
]


@pytest.fixture
def forest():
    return [parse_newick(text) for text in FOREST_NEWICKS]


@pytest.fixture
def vectors(forest):
    return DistanceVectors.from_trees(forest)


def brute_topk(vectors, forest, query, k, mode):
    """Reference ranking: sorted all-pairs matrix row of the query."""
    combined = DistanceVectors.from_trees(list(forest) + [query])
    row, _computed, _pruned = combined.row(len(forest), mode)
    ranked = sorted((distance, index) for index, distance in
                    enumerate(row[: len(forest)]))
    return tuple((index, distance) for distance, index in ranked[:k])


class TestBruteForceEquality:
    @pytest.mark.parametrize("mode", list(DistanceMode))
    @pytest.mark.parametrize("k", [1, 2, 4, 6, 50])
    def test_matches_sorted_row(self, forest, vectors, mode, k):
        query = parse_newick("((a,b),(c,(d,e)));")
        result = topk_similar(vectors, query, k, mode)
        assert result.neighbors == brute_topk(vectors, forest, query, k, mode)

    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_query_from_corpus_ranks_itself_first(
        self, forest, vectors, mode
    ):
        result = topk_similar(vectors, forest[2], 3, mode)
        # The query itself is at distance 0; other trees may tie under
        # the coarser modes (plain collapses distances), in which case
        # the smaller index wins the tie deterministically.
        assert result.neighbors[0][1] == 0.0
        assert (2, 0.0) in result.neighbors or result.neighbors[0][1] == 0.0
        assert result.neighbors == brute_topk(
            vectors, forest, forest[2], 3, mode
        )

    def test_random_forest_all_modes(self):
        rng = random.Random(17)
        params = SyntheticTreeParams(
            treesize=12, databasesize=25, fanout=4, alphabetsize=10
        )
        forest = synthetic_forest(params, rng)
        query = synthetic_forest(
            SyntheticTreeParams(
                treesize=12, databasesize=1, fanout=4, alphabetsize=10
            ),
            random.Random(91),
        )[0]
        vectors = DistanceVectors.from_trees(forest)
        for mode in DistanceMode:
            result = topk_similar(vectors, query, 7, mode)
            assert result.neighbors == brute_topk(
                vectors, forest, query, 7, mode
            )


class TestDeterminism:
    def test_duplicate_trees_tie_break_by_index(self, capsys):
        trees = [parse_newick("((a,b),(c,d));") for _ in range(5)]
        vectors = DistanceVectors.from_trees(trees)
        result = topk_similar(vectors, trees[0], 3)
        # All five trees tie at distance 0; the smaller indexes win.
        assert result.neighbors == ((0, 0.0), (1, 0.0), (2, 0.0))
        # Tree 1 shares the (a, b) label pair but at another distance,
        # so in dist mode it is joined to exactly 1.0 and must still
        # tie-break by index against the zero-overlap fills around it.
        mixed = [
            parse_newick("((p,q),(r,s));"),
            parse_newick("((a,x),(b,y));"),
            parse_newick("((m,n),(o,t));"),
        ]
        result = topk_similar(
            DistanceVectors.from_trees(mixed), trees[0], 3, DistanceMode.DIST
        )
        assert result.exact_joins == 1
        assert result.neighbors == ((0, 1.0), (1, 1.0), (2, 1.0))

    def test_kth_tie_never_pruned(self):
        # Two trees tie exactly at the k-th distance: the smaller index
        # takes the last slot.
        trees = [
            parse_newick("((a,b),(c,d));"),
            parse_newick("((a,b),(c,e));"),
            parse_newick("((a,b),(c,e));"),
        ]
        vectors = DistanceVectors.from_trees(trees)
        result = topk_similar(vectors, trees[0], 2)
        assert result.neighbors[0] == (0, 0.0)
        assert result.neighbors[1][0] == 1

    def test_repeat_runs_identical(self, vectors):
        query = parse_newick("((a,b),c);")
        first = topk_similar(vectors, query, 4)
        second = topk_similar(vectors, query, 4)
        assert first == second


class TestEdgeCases:
    def test_empty_query_tree(self, vectors):
        result = topk_similar(vectors, Tree("root"), 3)
        # No pair keys: every tree is index-pruned, fills rank by index.
        assert result.exact_joins == 0
        assert result.pruned_index == len(vectors)
        assert result.neighbors == ((0, 1.0), (1, 1.0), (2, 1.0))

    def test_empty_query_against_empty_tree(self):
        vectors = DistanceVectors.from_trees(
            [Tree("solo"), parse_newick("((a,b),c);")]
        )
        result = topk_similar(vectors, Tree("root"), 1)
        # Two empty pair collections are at distance 0 by convention.
        assert result.neighbors == ((0, 0.0),)

    def test_unseen_labels_only(self, forest, vectors):
        query = parse_newick("((p,q),(r,s));")
        result = topk_similar(vectors, query, 2)
        assert result.neighbors == brute_topk(vectors, forest, query, 2,
                                              DistanceMode.DIST_OCCUR)
        assert result.exact_joins == 0

    def test_mixed_known_unknown_labels(self, forest, vectors):
        query = parse_newick("((a,zz),(b,yy));")
        for mode in DistanceMode:
            result = topk_similar(vectors, query, 4, mode)
            assert result.neighbors == brute_topk(
                vectors, forest, query, 4, mode
            )

    def test_k_larger_than_corpus(self, forest, vectors):
        result = topk_similar(vectors, forest[0], 100)
        assert len(result.neighbors) == len(forest)
        assert result.neighbors == brute_topk(
            vectors, forest, forest[0], 100, DistanceMode.DIST_OCCUR
        )

    def test_empty_corpus(self):
        vectors = DistanceVectors.from_trees([])
        result = topk_similar(vectors, parse_newick("(a,b);"), 3)
        assert result.neighbors == ()
        assert result.candidates == 0

    def test_minoccur_filter_applies_to_query(self, forest):
        vectors = DistanceVectors.from_trees(forest, minoccur=2)
        query = parse_newick("((a,b),(a,b));")
        result = topk_similar(vectors, query, 3, minoccur=2)
        combined = DistanceVectors.from_trees(
            list(forest) + [query], minoccur=2
        )
        row, _, _ = combined.row(len(forest), DistanceMode.DIST_OCCUR)
        ranked = sorted(
            (distance, index)
            for index, distance in enumerate(row[: len(forest)])
        )
        assert result.neighbors == tuple(
            (index, distance) for distance, index in ranked[:3]
        )


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True])
    def test_bad_k_rejected(self, bad):
        with pytest.raises(MiningParameterError, match="k must be"):
            validate_k(bad)

    def test_bad_k_through_search(self, vectors):
        query = query_vector(
            vectors,
            MiningEngine(jobs=1).packed_counts([parse_newick("(a,b);")])[1][0],
        )
        with pytest.raises(MiningParameterError):
            topk_search(vectors, query, 0)


class TestCounters:
    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_funnel_reconciles(self, forest, vectors, mode):
        query = parse_newick("((a,b),(x,y));")
        result = topk_similar(vectors, query, 2, mode)
        assert result.candidates == len(forest)
        assert (
            result.candidates
            == result.pruned_index + result.exact_joins
        )

    def test_registry_counters_emitted(self, vectors):
        from repro.obs.context import scope
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with scope(registry):
            result = topk_similar(vectors, parse_newick("((a,b),c);"), 2)
        counters = registry.snapshot()["counters"]
        assert counters["topk.candidates"] == result.candidates
        assert counters["topk.pruned_index"] == result.pruned_index
        assert counters["topk.exact_joins"] == result.exact_joins

    def test_describe_mentions_funnel(self, vectors):
        result = topk_similar(vectors, parse_newick("((a,b),c);"), 2)
        text = result.describe()
        assert "index-pruned" in text and "exact join" in text


class TestQueryProjection:
    def test_known_labels_keep_corpus_ids(self, vectors):
        packed = MiningEngine(jobs=1).packed_counts(
            [parse_newick("((a,b),(c,d));")]
        )[1][0]
        projected = query_vector(vectors, packed)
        assert isinstance(projected, QueryVector)
        # Every key must be found in the corpus index (all labels known).
        hits = vectors.candidate_trees(projected.pair_keys)
        assert hits.size > 0

    def test_unknown_labels_never_collide(self, vectors):
        packed = MiningEngine(jobs=1).packed_counts(
            [parse_newick("((p,q),(r,s));")]
        )[1][0]
        projected = query_vector(vectors, packed)
        assert vectors.candidate_trees(projected.pair_keys).size == 0

    def test_projection_preserves_totals(self, vectors):
        tree = parse_newick("((a,zz),(b,a));")
        packed = MiningEngine(jobs=1).packed_counts([tree])[1][0]
        projected = query_vector(vectors, packed)
        assert projected.full_total == packed.total_occurrences()
        assert projected.pair_total == projected.full_total
        assert np.all(np.diff(projected.full_keys) > 0)
