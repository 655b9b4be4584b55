"""Cousin mining on trees with weighted edges (paper's future work i).

Section 7 lists "extending the proposed techniques to trees whose
edges have weights" as future work.  Phylogenies carry branch lengths
(expected substitutions per site), and two sibling taxa separated by
long branches are biologically farther apart than two separated by
twigs — information the purely topological cousin distance discards.

This module keeps the paper's *pattern class* intact — a weighted
cousin pair is found exactly where the topological miner finds one —
and enriches each concrete pair with its **weighted span**: the sum of
branch lengths along the path between the two cousins (through their
LCA).  Aggregated items then carry, per (label pair, cousin distance),
the occurrence count plus the minimum / mean / maximum span, and a
``max_span`` knob allows filtering out pairs whose weighted separation
is too large even though their topological distance qualifies.

Edges without a recorded length default to ``default_length`` (1.0, so
unweighted trees degenerate to counting edges — the span then equals
``2 * (cdist + 1)`` for same-generation pairs, a property the tests
pin down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.core.cousins import CousinPair
from repro.core.fastmine import iter_pair_indexes
from repro.core.params import MiningParams
from repro.trees.arena import TreeArena
from repro.trees.tree import Tree

__all__ = ["WeightedCousinPair", "WeightedPairItem", "mine_tree_weighted",
           "enumerate_weighted_pairs"]


@dataclass(frozen=True)
class WeightedCousinPair:
    """A concrete cousin pair with its weighted span."""

    pair: CousinPair
    span: float

    @property
    def distance(self) -> float:
        """The topological cousin distance (Figure 2)."""
        return self.pair.distance


@dataclass(frozen=True)
class WeightedPairItem:
    """Aggregated weighted cousin pair item.

    Extends the paper's quadruple with span statistics over the
    occurrences.
    """

    label_a: str
    label_b: str
    distance: float
    occurrences: int
    min_span: float
    mean_span: float
    max_span: float

    def describe(self) -> str:
        """One-line rendering including the span band."""
        return (
            f"({self.label_a}, {self.label_b}) at distance "
            f"{self.distance:g} x{self.occurrences}, span "
            f"[{self.min_span:.3g}, {self.max_span:.3g}] "
            f"mean {self.mean_span:.3g}"
        )


def _path_weight(
    parent, lengths, index: int, ancestor: int, default_length: float
) -> float:
    total = 0.0
    while index != ancestor:
        length = lengths[index]
        # NaN marks an edge without a recorded length.
        total += default_length if length != length else length
        index = parent[index]
    return total


def enumerate_weighted_pairs(
    tree: Tree,
    maxdist: float = 1.5,
    max_generation_gap: int = 1,
    default_length: float = 1.0,
    max_span: float | None = None,
) -> Iterator[WeightedCousinPair]:
    """Yield every qualifying cousin pair with its weighted span.

    Parameters mirror
    :func:`repro.core.fastmine.enumerate_cousin_pairs`, plus:

    default_length:
        Length assumed for edges without one.
    max_span:
        When given, pairs whose span exceeds it are dropped.

    The kernel's pair enumeration already reports each pair's least
    common ancestor, so the span is two walks up the arena's parent
    array — no per-pair LCA query.
    """
    if tree.root is None:
        return
    params = MiningParams(
        maxdist=maxdist, minoccur=1, minsup=1,
        max_generation_gap=max_generation_gap,
    )
    arena = TreeArena.from_tree(tree)
    parent = arena.parent
    lengths = arena.lengths
    node_ids = arena.node_ids
    label = arena.label
    labels = arena.table.labels
    for index_u, index_v, lca_index, half_steps in zip(
        *(column.tolist() for column in iter_pair_indexes(arena, params))
    ):
        span = _path_weight(parent, lengths, index_u, lca_index, default_length)
        span += _path_weight(parent, lengths, index_v, lca_index, default_length)
        if max_span is not None and span > max_span:
            continue
        if node_ids[index_u] > node_ids[index_v]:
            index_u, index_v = index_v, index_u
        pair = CousinPair(
            id_a=node_ids[index_u],
            id_b=node_ids[index_v],
            label_a=labels[label[index_u]],
            label_b=labels[label[index_v]],
            distance=half_steps / 2.0,
        )
        yield WeightedCousinPair(pair=pair, span=span)


def mine_tree_weighted(
    tree: Tree,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    default_length: float = 1.0,
    max_span: float | None = None,
) -> list[WeightedPairItem]:
    """Aggregated weighted cousin pair items of one tree.

    Output is sorted like :func:`repro.core.single_tree.mine_tree`;
    with ``default_length=1`` and no ``max_span`` the (labels,
    distance, occurrences) projection coincides with the unweighted
    miner's items — a differential property the tests verify.
    """
    params = MiningParams(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=1,
        max_generation_gap=max_generation_gap,
    )
    spans: dict[tuple[str, str, float], list[float]] = {}
    for weighted in enumerate_weighted_pairs(
        tree,
        maxdist=params.maxdist,
        max_generation_gap=params.max_generation_gap,
        default_length=default_length,
        max_span=max_span,
    ):
        label_a, label_b = weighted.pair.label_key
        spans.setdefault((label_a, label_b, weighted.distance), []).append(
            weighted.span
        )
    items = [
        WeightedPairItem(
            label_a=label_a,
            label_b=label_b,
            distance=distance,
            occurrences=len(values),
            min_span=min(values),
            # exactly rounded, so independent of the enumeration order
            mean_span=math.fsum(values) / len(values),
            max_span=max(values),
        )
        for (label_a, label_b, distance), values in spans.items()
        if len(values) >= params.minoccur
    ]
    items.sort(key=lambda item: (item.label_a, item.label_b, item.distance))
    return items
