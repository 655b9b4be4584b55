"""Kernel trees from groups of phylogenies (Section 5.3).

Given ``g`` groups of phylogenies ``Cust_1 .. Cust_g`` — each group
holding equally parsimonious trees for one taxon set, different groups
sharing some but not all taxa — the kernel trees are one representative
``Kert_i`` per group chosen so that the *average pairwise cousin-based
distance between the selected representatives* is minimal.  The paper
proposes the selection as a good starting point for supertree
construction, and measures the selection time for 2..5 groups
(Figure 10).

The selection is solved exactly, on the packed distance kernel
(:mod:`repro.core.distvec`): every tree is mined once into a shared
sparse-vector universe, every cross-group distance block is computed
up front with batched merge-joins (:meth:`DistanceVectors.block`), and
the combination space is explored with branch-and-bound over exact
partial sums read from those blocks.  Ties go to the lexicographically
smallest index tuple, so the selected kernels and the minimised
average are identical to exhaustive evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.distvec import DistanceVectors
from repro.core.params import DistanceMode, validate_mode
from repro.errors import MiningParameterError
from repro.obs.context import get_registry, get_tracer
from repro.trees.arena import TreeLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = ["KernelResult", "find_kernel_trees"]


@dataclass(frozen=True)
class KernelResult:
    """Outcome of a kernel-tree search.

    Attributes
    ----------
    indexes:
        Selected tree position within each group (``indexes[i]`` points
        into ``groups[i]``).
    trees:
        The selected kernel trees themselves, one per group.
    average_distance:
        The minimised average pairwise distance between the kernels.
    pairwise_evaluations:
        How many cross-group tree-pair distances were computed — always
        the full cross-group pair count, the quantity that grows with
        the number of groups and drives Figure 10.
    """

    indexes: tuple[int, ...]
    trees: tuple[TreeLike, ...]
    average_distance: float
    pairwise_evaluations: int


def find_kernel_trees(
    groups: Sequence[Sequence[TreeLike]],
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    engine: "MiningEngine | None" = None,
) -> KernelResult:
    """Select one kernel tree per group minimising average distance.

    Parameters
    ----------
    groups:
        Two or more non-empty groups of trees.  Groups may (and in the
        paper's setting do) have different taxon sets.
    mode:
        Which cousin-based distance variant to use; the paper uses the
        full ``DIST_OCCUR`` variant.
    engine:
        Optional :class:`repro.engine.MiningEngine`.  Per-tree mining
        then runs as its batches, with identical selection output, and
        the joined pair count is added to the engine's
        ``distance_pairs_computed`` stat.

    Raises
    ------
    MiningParameterError
        If fewer than two groups are given, any group is empty, or
        ``mode`` is not a known variant (also a ``ValueError``).
    """
    if len(groups) < 2:
        raise MiningParameterError("kernel-tree search needs at least two groups")
    for position, group in enumerate(groups):
        if not group:
            raise MiningParameterError(f"group {position} is empty")
    mode = validate_mode(mode)

    # Mine every tree once, into one shared vector universe.
    flat = [tree for group in groups for tree in group]
    with get_tracer().span(
        "kernel.vectors", metric="kernel.vectors.seconds", trees=len(flat)
    ):
        vectors = DistanceVectors.from_trees(
            flat,
            maxdist=maxdist,
            minoccur=minoccur,
            max_generation_gap=max_generation_gap,
            engine=engine,
        )
    members: list[range] = []
    cursor = 0
    for group in groups:
        members.append(range(cursor, cursor + len(group)))
        cursor += len(group)
    blocks = {
        (first, second): vectors.block(members[first], members[second], mode)
        for first, second in combinations(range(len(groups)), 2)
    }

    with get_tracer().span(
        "kernel.search", metric="kernel.search.seconds", groups=len(groups)
    ):
        best_sum, best_choice = _search([len(group) for group in groups], blocks)

    evaluations = sum(block.size for block in blocks.values())
    get_registry().counter("kernel.evaluations").add(evaluations)
    if engine is not None:
        engine.stats.distance_pairs_computed += evaluations
    pair_count = len(groups) * (len(groups) - 1) // 2
    return KernelResult(
        indexes=best_choice,
        trees=tuple(groups[i][choice] for i, choice in enumerate(best_choice)),
        average_distance=best_sum / pair_count,
        pairwise_evaluations=evaluations,
    )


def _search(
    sizes: Sequence[int],
    blocks: Mapping[tuple[int, int], np.ndarray],
) -> tuple[float, tuple[int, ...]]:
    """Branch-and-bound over one-choice-per-group combinations.

    State: a partial assignment for groups ``0..k-1`` with the sum of
    distances among chosen trees so far; since all distances are
    non-negative, the partial sum is an admissible lower bound.  At
    level ``k`` every candidate's sum is one vector,
    ``partial + (0.0 + D[0,k][c0] + D[1,k][c1] + ...)``, added in that
    order.  Intermediate levels visit candidates in ascending order and
    skip any whose sum is already ``>= best``.  The last two levels are
    one ``n[g-2] x n[g-1]`` matrix, added in the same order; its first
    row-major minimum is kept only if strictly smaller, so ties go to
    the lexicographically smallest index tuple.
    """
    group_count = len(sizes)
    best_sum = float("inf")
    best_choice: tuple[int, ...] = ()
    choice: list[int] = []

    def added(level: int) -> np.ndarray:
        """``0.0 + D[0,level][c0] + ...`` over the chosen groups."""
        total = np.zeros(sizes[level])
        for earlier, chosen in enumerate(choice):
            total += blocks[earlier, level][chosen]
        return total

    def extend(level: int, partial_sum: float) -> None:
        nonlocal best_sum, best_choice
        sums = partial_sum + added(level)
        if level == group_count - 2:
            last = sums[:, None] + (added(level + 1) + blocks[level, level + 1])
            flat = int(np.argmin(last))
            if last.flat[flat] < best_sum:
                best_sum = float(last.flat[flat])
                best_choice = (*choice, *divmod(flat, sizes[level + 1]))
            return
        for candidate, value in enumerate(sums.tolist()):
            # best_sum moves during the loop, so re-check each time.
            if value >= best_sum:
                continue
            choice.append(candidate)
            extend(level + 1, value)
            choice.pop()

    extend(0, 0.0)
    return best_sum, best_choice
