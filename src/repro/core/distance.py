"""Cousin-based tree distance (Section 5.3, Equation 6).

The paper defines the distance between two trees from their cousin pair
item collections ``cpi(T1)`` and ``cpi(T2)``.  We use the Jaccard-style
form

    treedist(T1, T2) = 1 - |cpi(T1) ∩ cpi(T2)| / |cpi(T1) ∪ cpi(T2)|

which is 0 for trees with identical cousin structure and 1 for trees
sharing no cousin pairs.  Intersections and unions follow the multiset
semantics of footnote 2 (min / max of occurrence counts) whenever
occurrence numbers participate.

Four variants arise from wildcarding the distance and/or occurrence
slots of the items (the paper's ``treedist_plain``, ``treedist_dist``,
``treedist_occur`` and ``treedist_dist_occur``); pick one with
:class:`DistanceMode`.

Unlike classical phylogenetic distances (Robinson–Foulds, the
COMPONENT tool's measures), these distances are defined for trees with
*different* taxon sets — the property the kernel-tree application
(:mod:`repro.core.kernel`) relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.pairset import CousinPairSet
from repro.core.params import DistanceMode
from repro.trees.arena import TreeLike
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = [
    "DistanceMode",
    "tree_distance",
    "pairset_distance",
    "pairset_distance_matrix",
    "distance_matrix",
]


def _is_multiset_mode(mode: DistanceMode) -> bool:
    """Whether ``mode`` compares occurrence counts (footnote 2)."""
    return mode in (DistanceMode.OCCUR, DistanceMode.DIST_OCCUR)


def _mode_view(pair_set: CousinPairSet, mode: DistanceMode):
    """The view of one pair set that ``mode`` compares.

    A plain ``set`` for the wildcard-occurrence modes, a ``Counter``
    for the multiset modes — materialised once so matrix-style callers
    can hoist it out of their O(k^2) pair loops.
    """
    if mode is DistanceMode.PLAIN:
        return pair_set.label_pairs()
    if mode is DistanceMode.DIST:
        return pair_set.with_distance()
    if mode is DistanceMode.OCCUR:
        return pair_set.with_occurrence()
    return pair_set.with_distance_and_occurrence()


def _view_distance(left, right, multiset: bool) -> float:
    """Jaccard-style distance between two prebuilt views."""
    if multiset:
        intersection = CousinPairSet.multiset_intersection_size(left, right)
        union = CousinPairSet.multiset_union_size(left, right)
    else:
        intersection = len(left & right)
        union = len(left | right)
    if union == 0:
        return 0.0
    return 1.0 - intersection / union


def pairset_distance(
    left: CousinPairSet,
    right: CousinPairSet,
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
) -> float:
    """Distance between two prebuilt pair sets.

    Returns a value in [0, 1]; two empty pair sets are at distance 0
    by convention.
    """
    mode = DistanceMode(mode)
    return _view_distance(
        _mode_view(left, mode),
        _mode_view(right, mode),
        _is_multiset_mode(mode),
    )


def pairset_distance_matrix(
    pair_sets: Sequence[CousinPairSet],
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
) -> list[list[float]]:
    """All pairwise distances over prebuilt pair sets — the reference.

    This is the string-keyed legacy path, kept as the
    differential-testing baseline for the packed kernel
    (:mod:`repro.core.distvec`); ``benchmarks/bench_distance_matrix.py``
    and ``tests/property/test_prop_distvec.py`` compare against it.
    Projections are materialised once per set, not once per pair.
    """
    mode = DistanceMode(mode)
    multiset = _is_multiset_mode(mode)
    projections = [_mode_view(pair_set, mode) for pair_set in pair_sets]
    size = len(projections)
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            value = _view_distance(projections[i], projections[j], multiset)
            matrix[i][j] = value
            matrix[j][i] = value
    return matrix


def tree_distance(
    first: TreeLike,
    second: TreeLike,
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    engine: "MiningEngine | None" = None,
) -> float:
    """Cousin-based distance between two trees (Equation 6).

    Parameters
    ----------
    mode:
        Which of the four variants to compute; the paper's kernel-tree
        experiment uses ``DIST_OCCUR``.
    maxdist, minoccur, max_generation_gap:
        Mining parameters used to build each tree's pair set.
    engine:
        Optional :class:`repro.engine.MiningEngine`; per-tree mining
        then runs as one of its batches with identical output.
    """
    from repro.core.distvec import DistanceVectors
    from repro.core.params import validate_mode

    mode = validate_mode(mode)
    vectors = DistanceVectors.from_trees(
        [first, second],
        maxdist=maxdist,
        minoccur=minoccur,
        max_generation_gap=max_generation_gap,
        engine=engine,
    )
    return vectors.distance(0, 1, mode)


def distance_matrix(
    trees: Sequence[Tree],
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    engine: "MiningEngine | None" = None,
) -> list[list[float]]:
    """All pairwise distances; each tree is mined exactly once.

    Returns a symmetric ``len(trees) x len(trees)`` nested list with a
    zero diagonal, computed on the packed sparse-vector kernel
    (:mod:`repro.core.distvec`) — numerically identical to
    :func:`pairset_distance_matrix` over the same trees.  With an
    ``engine``, per-tree mining runs as its batch and the build is
    counted in its stats (:meth:`repro.engine.MiningEngine.distance_matrix`) with
    identical output.
    """
    from repro.core.distvec import DistanceVectors
    from repro.core.params import validate_mode

    mode = validate_mode(mode)
    if engine is not None:
        vectors = engine.distance_vectors(
            trees,
            maxdist=maxdist,
            minoccur=minoccur,
            max_generation_gap=max_generation_gap,
        )
        return engine.distance_matrix(vectors, mode)
    vectors = DistanceVectors.from_trees(
        trees,
        maxdist=maxdist,
        minoccur=minoccur,
        max_generation_gap=max_generation_gap,
        engine=engine,
    )
    return vectors.matrix(mode)
