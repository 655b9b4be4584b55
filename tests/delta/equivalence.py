"""Shared oracle helpers for the delta-mining differential harness.

The contract under test is *byte identity*: after any churn sequence,
every query against a :class:`repro.engine.delta.VersionedCorpus`
must equal a from-scratch computation over the corpus's current tree
sequence — same values, same float bits, same ordering, down to the
non-compared ``FrequentCousinPair`` fields (``tree_indexes``,
``total_occurrences``) that dataclass ``==`` ignores.
"""

from __future__ import annotations

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.reference import mine_forest_reference

MINSUPS = (1, 2, 3)


def minsups(trees):
    """:data:`MINSUPS` plus one threshold no pattern can reach."""
    return MINSUPS + (len(trees) + 1,)


def pattern_tuples(patterns):
    """Every field of every pattern, the non-compared ones included."""
    return [
        (
            pattern.label_a,
            pattern.label_b,
            pattern.distance,
            pattern.support,
            pattern.tree_indexes,
            pattern.total_occurrences,
        )
        for pattern in patterns
    ]


def assert_corpus_matches_remine(corpus, context=""):
    """Assert byte identity of frequent pairs, supports and matrices.

    ``frequent_pairs(minsup=1)`` enumerates every pair item with its
    support, so comparing it (plus the ignore-distance view) checks
    the maintained support state exhaustively (a ``minsup`` above the
    tree count must come back empty); the four distance-mode
    matrices are compared against a fresh
    :meth:`DistanceVectors.from_trees` build with ``==`` — exact
    float equality, no tolerance.
    """
    trees = list(corpus.trees)
    minoccur = corpus.params.minoccur
    for minsup in minsups(trees):
        for ignore_distance in (False, True):
            got = corpus.frequent_pairs(
                minsup=minsup, ignore_distance=ignore_distance
            )
            want = mine_forest_reference(
                trees,
                maxdist=corpus.params.maxdist,
                minoccur=minoccur,
                minsup=minsup,
                ignore_distance=ignore_distance,
                max_generation_gap=corpus.params.max_generation_gap,
                max_height=corpus.params.max_height,
            )
            assert pattern_tuples(got) == pattern_tuples(want), (
                f"{context}: frequent pairs diverged at minsup={minsup} "
                f"ignore_distance={ignore_distance}"
            )
    reference = DistanceVectors.from_trees(trees, minoccur=minoccur)
    for mode in DistanceMode:
        assert corpus.distance_matrix(mode) == reference.matrix(mode), (
            f"{context}: {mode.value} matrix diverged from rebuild"
        )
