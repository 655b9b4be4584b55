"""Unit tests for kernel-tree selection (Section 5.3)."""

from itertools import product

import numpy as np
import pytest

from repro.core.distance import DistanceMode, pairset_distance
from repro.core.kernel import _search, find_kernel_trees
from repro.core.pairset import CousinPairSet
from repro.obs.context import scope
from repro.obs.metrics import MetricsRegistry
from repro.trees.newick import parse_newick

from tests.conftest import make_random_tree


class TestValidation:
    def test_needs_two_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            find_kernel_trees([[parse_newick("(a,b);")]])

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="empty"):
            find_kernel_trees([[parse_newick("(a,b);")], []])


class TestExactness:
    def test_two_groups_picks_minimum_pair(self):
        shared = "((a,b),(c,d));"
        groups = [
            [parse_newick("((a,c),(b,d));"), parse_newick(shared)],
            [parse_newick(shared), parse_newick("((a,d),(b,c));")],
        ]
        result = find_kernel_trees(groups, mode=DistanceMode.DIST)
        assert result.indexes == (1, 0)
        assert result.average_distance == 0.0

    def test_matches_brute_force(self, rng):
        for group_count in (2, 3, 4, 5):
            groups = [
                [make_random_tree(rng, max_size=12) for _ in range(3)]
                for _ in range(group_count)
            ]
            # Ties: a duplicated tree within a group, and the same tree
            # in two groups.  The one-leaf tree mines no pairs at all.
            groups[0].append(groups[0][1])
            groups[1].append(groups[0][0])
            groups[-1].append(parse_newick("a;"))
            for mode in DistanceMode:
                for minoccur in (1, 2, 3):
                    result = find_kernel_trees(
                        groups, mode=mode, minoccur=minoccur
                    )
                    expected = _exhaustive(groups, mode, minoccur)
                    assert (
                        result.indexes, result.average_distance
                    ) == expected

    def test_empty_projections_pair_at_zero(self):
        # Two empty collections are at distance 0, an empty and a
        # non-empty one at 1.0: only the all-empty tuple reaches 0.
        groups = [
            [parse_newick("a;"), parse_newick("(b,c);")],
            [parse_newick("(d,e);"), parse_newick("f;")],
            [parse_newick("g;")],
        ]
        for mode in DistanceMode:
            result = find_kernel_trees(groups, mode=mode)
            assert result.indexes == (0, 1, 0)
            assert result.average_distance == 0.0
            assert (result.indexes, result.average_distance) == _exhaustive(
                groups, mode, 1
            )

    def test_returns_actual_trees(self, rng):
        groups = [
            [make_random_tree(rng) for _ in range(2)] for _ in range(2)
        ]
        result = find_kernel_trees(groups)
        for group, index, tree in zip(groups, result.indexes, result.trees):
            assert group[index] is tree


class TestBookkeeping:
    def test_evaluations_cover_all_cross_pairs(self, rng):
        sizes = [2, 3, 4]
        groups = [
            [make_random_tree(rng, max_size=10) for _ in range(size)]
            for size in sizes
        ]
        result = find_kernel_trees(groups)
        assert result.pairwise_evaluations == 2 * 3 + 2 * 4 + 3 * 4

    def test_prunes_after_perfect_match(self):
        # A distance-0 assignment found first is never displaced: every
        # later candidate ties or exceeds it.
        shared = "((a,b),(c,d));"
        groups = [
            [parse_newick(shared)],
            [
                parse_newick(shared),
                parse_newick("((e,f),(g,h));"),
                parse_newick("((i,j),(k,l));"),
            ],
        ]
        result = find_kernel_trees(groups)
        assert result.indexes == (0, 0)
        assert result.average_distance == 0.0
        assert result.pairwise_evaluations == 3

    def test_total_pairs_grow_with_groups(self, rng):
        trees = [
            [make_random_tree(rng, max_size=10) for _ in range(3)]
            for _ in range(5)
        ]
        totals = [
            find_kernel_trees(trees[:count]).pairwise_evaluations
            for count in (2, 3, 4, 5)
        ]
        expected = [9 * count * (count - 1) // 2 for count in (2, 3, 4, 5)]
        assert totals == expected


    def test_counts_evaluations_and_joined_pairs(self):
        # Every cross-group pair is evaluated; only the pairs whose two
        # projections are both non-empty are joined.
        groups = [
            [parse_newick("((a,b),(c,d));"), parse_newick("a;")],
            [
                parse_newick("((a,b),x);"),
                parse_newick("((e,f),(g,h));"),
                parse_newick("b;"),
            ],
            [parse_newick("((a,c),(b,d));")],
        ]
        with scope(MetricsRegistry()) as (registry, _tracer):
            result = find_kernel_trees(groups)
        assert result.pairwise_evaluations == 2 * 3 + 2 * 1 + 3 * 1
        assert registry.counter("kernel.evaluations").value == 11
        assert registry.counter("distvec.pairs.joined").value == (
            1 * 2 + 1 * 1 + 2 * 1
        )


class TestSearch:
    @pytest.mark.parametrize("group_count", [2, 3, 4, 5])
    def test_matches_exhaustive_product_on_tied_blocks(self, group_count):
        generator = np.random.default_rng(group_count)
        shapes = [[1] * group_count, [3] * (group_count - 1) + [1]]
        shapes += [
            [int(size) for size in generator.integers(1, 5, group_count)]
            for _ in range(30)
        ]
        for sizes in shapes:
            # Few one-decimal values: many tied sums, and sums whose
            # rounding depends on the order they are added in.
            blocks = {
                (first, second): generator.choice(
                    [0.1, 0.2, 0.3, 0.7], (sizes[first], sizes[second])
                )
                for first in range(group_count)
                for second in range(first + 1, group_count)
            }
            assert _search(sizes, blocks) == _exhaustive_blocks(sizes, blocks)


def _exhaustive_blocks(sizes, blocks):
    """Every index tuple in lexicographic order, summed in the search's
    order; the best only moves on a strictly smaller sum."""
    best_sum, best_choice = float("inf"), ()
    for choice in product(*(range(size) for size in sizes)):
        total = 0.0
        for k in range(1, len(sizes)):
            added = 0.0
            for earlier in range(k):
                added += float(blocks[earlier, k][choice[earlier], choice[k]])
            total += added
        if total < best_sum:
            best_sum, best_choice = total, choice
    return best_sum, best_choice


def _exhaustive(groups, mode, minoccur):
    """Exact oracle: every index tuple in lexicographic order.

    Sums accumulate in the search's order — per group ``k``, the
    distances to the earlier choices are added left to right onto 0.0
    and then onto the running total — and the best only moves on a
    strictly smaller sum, so ties keep the smallest tuple.  Distances
    come from the string-keyed reference, not the packed kernel.
    """
    sets = [
        [CousinPairSet.from_tree(tree, minoccur=minoccur) for tree in group]
        for group in groups
    ]
    best_sum, best_choice = float("inf"), None
    for choice in product(*(range(len(group)) for group in groups)):
        total = 0.0
        for k in range(1, len(groups)):
            added = 0.0
            for earlier in range(k):
                added += pairset_distance(
                    sets[earlier][choice[earlier]], sets[k][choice[k]], mode
                )
            total += added
        if total < best_sum:
            best_sum, best_choice = total, choice
    pair_count = len(groups) * (len(groups) - 1) // 2
    return best_choice, best_sum / pair_count
