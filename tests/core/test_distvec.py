"""Unit tests for the packed sparse-vector distance kernel."""

import pickle

import pytest

from repro.core.distance import (
    DistanceMode,
    pairset_distance,
    pairset_distance_matrix,
)
from repro.core.distvec import DistanceVectors, assemble_matrix
from repro.core.pairset import CousinPairSet
from repro.core.single_tree import mine_tree_counter
from repro.errors import MiningParameterError
from repro.trees.newick import parse_newick

from tests.conftest import make_random_tree

FOREST_NEWICKS = [
    "((a,b),(c,d));",
    "((a,b),(c,e));",
    "((a,c),(b,d),(a,b));",
    "(((a,b),c),d);",
    "(a,(b,(c,(d,e))));",
]


@pytest.fixture
def forest():
    return [parse_newick(text) for text in FOREST_NEWICKS]


class TestConstruction:
    def test_from_trees_matches_from_counters(self, forest):
        direct = DistanceVectors.from_trees(forest)
        via_counters = DistanceVectors.from_counters(
            [mine_tree_counter(tree) for tree in forest]
        )
        for mode in DistanceMode:
            assert direct.matrix(mode) == via_counters.matrix(mode)

    def test_from_counters_rejects_non_canonical_keys(self):
        with pytest.raises(ValueError):
            DistanceVectors.from_counters([{("b", "a", 0.0): 1}])

    def test_minoccur_filters_before_pair_collapse(self, forest):
        vectors = DistanceVectors.from_trees(forest, minoccur=2)
        pair_sets = [
            CousinPairSet.from_tree(tree, minoccur=2) for tree in forest
        ]
        for mode in DistanceMode:
            assert vectors.matrix(mode) == pairset_distance_matrix(
                pair_sets, mode
            )

    def test_invalid_minoccur_rejected(self, forest):
        with pytest.raises(MiningParameterError):
            DistanceVectors.from_trees(forest, minoccur=0)

    def test_len_and_labels(self, forest):
        vectors = DistanceVectors.from_trees(forest)
        assert len(vectors) == len(forest)
        assert set("abcde") <= set(vectors.labels)


class TestDistances:
    def test_matches_reference_all_modes(self, forest):
        vectors = DistanceVectors.from_trees(forest)
        pair_sets = [CousinPairSet.from_tree(tree) for tree in forest]
        for mode in DistanceMode:
            for i in range(len(forest)):
                for j in range(len(forest)):
                    assert vectors.distance(i, j, mode) == pairset_distance(
                        pair_sets[i], pair_sets[j], mode
                    )

    def test_mode_accepts_strings(self, forest):
        vectors = DistanceVectors.from_trees(forest)
        assert vectors.distance(0, 1, "plain") == vectors.distance(
            0, 1, DistanceMode.PLAIN
        )

    def test_invalid_mode_rejected(self, forest):
        vectors = DistanceVectors.from_trees(forest)
        with pytest.raises(MiningParameterError):
            vectors.distance(0, 1, "bogus")

    def test_totals_match_projection_cardinalities(self, forest):
        vectors = DistanceVectors.from_trees(forest)
        pair_sets = [CousinPairSet.from_tree(tree) for tree in forest]
        for i, pair_set in enumerate(pair_sets):
            full = pair_set.with_distance_and_occurrence()
            assert vectors.totals(DistanceMode.DIST_OCCUR)[i] == sum(
                full.values()
            )
            assert vectors.totals(DistanceMode.DIST)[i] == len(
                pair_set.with_distance()
            )
            assert vectors.totals(DistanceMode.OCCUR)[i] == sum(
                pair_set.with_occurrence().values()
            )
            assert vectors.totals(DistanceMode.PLAIN)[i] == len(
                pair_set.label_pairs()
            )


class TestBlock:
    def test_cells_equal_pairwise_distance(self, rng):
        # Trees 0 and 5 are one-leaf trees: empty under every mode.
        forest = [parse_newick("a;")]
        forest += [make_random_tree(rng, max_size=15) for _ in range(4)]
        forest += [parse_newick("b;")]
        for minoccur in (1, 2):
            vectors = DistanceVectors.from_trees(forest, minoccur=minoccur)
            for mode in DistanceMode:
                rows, cols = [0, 2, 5, 1], [3, 5, 0, 4, 2]
                block = vectors.block(rows, cols, mode)
                assert block.shape == (len(rows), len(cols))
                for r, i in enumerate(rows):
                    for c, j in enumerate(cols):
                        assert block[r, c] == vectors.distance(i, j, mode)

    def test_counts_joined_pairs(self):
        from repro.obs.context import scope
        from repro.obs.metrics import MetricsRegistry

        trees = [
            parse_newick("((a,b),(c,d));"),
            parse_newick("a;"),
            parse_newick("((a,b),x);"),
            parse_newick("((e,f),(g,h));"),
        ]
        vectors = DistanceVectors.from_trees(trees)
        with scope(MetricsRegistry()) as (registry, _tracer):
            block = vectors.block([0, 1], [2, 3], DistanceMode.PLAIN)
        # Row 1 is empty: filled with 1.0, never joined.
        assert registry.counter("distvec.pairs.joined").value == 2
        assert block[1].tolist() == [1.0, 1.0]
        assert block[0, 1] == 1.0


class TestTriangle:
    def test_disjoint_trees_are_pruned_not_joined(self):
        trees = [
            parse_newick("((a,b),(c,d));"),
            parse_newick("((e,f),(g,h));"),
            parse_newick("((a,b),x);"),
        ]
        vectors = DistanceVectors.from_trees(trees)
        rows, computed, pruned = vectors.triangle(DistanceMode.DIST_OCCUR)
        # Tree 1 shares no label pair with anyone: both its pairs are
        # pruned; (0, 2) share (a, b) and take the one real join.
        assert computed == 1
        assert pruned == 2
        assert rows[0][0] == 1.0  # (0, 1): zero overlap
        assert rows[1][0] == 1.0  # (1, 2): zero overlap
        assert 0.0 < rows[0][1] < 1.0  # (0, 2): genuine join

    def test_empty_forest_conventions(self):
        lone = parse_newick("(a);")
        other = parse_newick("(b);")
        vectors = DistanceVectors.from_trees([lone, other])
        rows, computed, pruned = vectors.triangle(DistanceMode.PLAIN)
        assert rows[0] == [0.0]
        assert computed == 0
        assert pruned == 1


class TestPickling:
    def test_round_trip_preserves_distances(self, forest):
        vectors = DistanceVectors.from_trees(forest)
        vectors.build_index()
        clone = pickle.loads(pickle.dumps(vectors))
        for mode in DistanceMode:
            assert clone.matrix(mode) == vectors.matrix(mode)


class TestAssembleMatrix:
    def test_symmetric_with_zero_diagonal(self):
        matrix = assemble_matrix([[0.25, 0.5], [0.75], []])
        assert matrix == [
            [0.0, 0.25, 0.5],
            [0.25, 0.0, 0.75],
            [0.5, 0.75, 0.0],
        ]

    def test_empty(self):
        assert assemble_matrix([]) == []


class TestLowerBoundEdgeCases:
    def test_empty_vs_empty_is_zero(self):
        vectors = DistanceVectors.from_trees(
            [parse_newick("(a);"), parse_newick("(b);")]
        )
        for mode in DistanceMode:
            assert vectors.distance(0, 1, mode) == 0.0

    def test_empty_vs_nonempty_admissible(self):
        vectors = DistanceVectors.from_trees(
            [parse_newick("(a);"), parse_newick("((a,b),c);")]
        )
        for mode in DistanceMode:
            assert vectors.distance(0, 1, mode) == 1.0

    def test_duplicate_fingerprint_trees_bound_zero(self):
        twins = [parse_newick("((a,b),(c,d));") for _ in range(2)]
        vectors = DistanceVectors.from_trees(twins)
        for mode in DistanceMode:
            assert vectors.distance(0, 1, mode) == 0.0

    def test_kth_tie_order_pinned_in_topk(self):
        # Three trees tie at the same distance from the query; with
        # k=2 the returned pair must be the two smallest indexes, and
        # repeat runs must agree (the deterministic-order contract).
        from repro.core.topk import topk_similar

        trees = [
            parse_newick("((a,b),(c,e));"),
            parse_newick("((a,b),(c,e));"),
            parse_newick("((a,b),(c,e));"),
        ]
        vectors = DistanceVectors.from_trees(trees)
        query = parse_newick("((a,b),(c,d));")
        first = topk_similar(vectors, query, 2)
        second = topk_similar(vectors, query, 2)
        assert first.neighbors == second.neighbors
        assert [index for index, _d in first.neighbors] == [0, 1]
        tie = first.neighbors[0][1]
        assert first.neighbors[1][1] == tie
