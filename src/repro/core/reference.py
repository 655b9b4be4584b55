"""Naive all-pairs reference miner.

Section 7 of the paper contrasts its guided enumeration with "taking
random pairs of nodes and finding out what kind of cousins they are".
This module implements exactly that brute-force strategy: every pair of
labeled nodes, an explicit LCA computation, and the Figure 2 distance
formula.  It is the differential-testing oracle for the two real
miners (:func:`repro.core.single_tree.mine_tree` and
:func:`repro.core.updown.mine_tree_updown`) and the baseline of the
ablation benchmark.

:func:`mine_forest_reference` is the matching oracle for the
multi-tree step: Section 3's procedure written literally — the Fig 3
miner per tree, then a dict of supporting trees per item — against
which every caller of the vectorised kernel
(:func:`repro.core.multi_tree.aggregate_rows`) is tested.  No
production path calls it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

from repro.core.cousins import CousinPairItem, distance_from_heights
from repro.core.multi_tree import FrequentCousinPair
from repro.core.params import MiningParams
from repro.core.single_tree import mine_tree
from repro.trees.tree import Tree
from repro.trees.traversal import TreeIndex

__all__ = ["mine_forest_reference", "mine_tree_reference"]


def mine_tree_reference(
    tree: Tree,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> list[CousinPairItem]:
    """All-pairs brute-force cousin pair item enumeration.

    Same contract and output ordering as
    :func:`repro.core.single_tree.mine_tree`; cost is
    ``O(|T|^2 * height)`` instead of the guided miners' output-bounded
    ``O(|T|^2)``.
    """
    params = MiningParams(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=1,
        max_generation_gap=max_generation_gap,
        max_height=max_height,
    )
    if tree.root is None:
        return []
    index = TreeIndex(tree)
    labeled = [node for node in index.preorder() if node.label is not None]
    counts: Counter[tuple[str, str, float]] = Counter()
    for i, first in enumerate(labeled):
        depth_first = index.depth(first)
        for second in labeled[i + 1 :]:
            ancestor = index.lca(first, second)
            height_a = depth_first - index.depth(ancestor)
            height_b = index.depth(second) - index.depth(ancestor)
            if not params.admits_heights(height_a, height_b):
                continue
            distance = distance_from_heights(
                height_a, height_b, params.max_generation_gap
            )
            if first.label <= second.label:
                key = (first.label, second.label, distance)
            else:
                key = (second.label, first.label, distance)
            counts[key] += 1
    items = [
        CousinPairItem(label_a, label_b, distance, occurrences)
        for (label_a, label_b, distance), occurrences in counts.items()
        if occurrences >= params.minoccur
    ]
    items.sort()
    return items


def mine_forest_reference(
    trees: Sequence[Tree],
    maxdist: float = 1.5,
    minoccur: int = 1,
    minsup: int = 2,
    ignore_distance: bool = False,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> list[FrequentCousinPair]:
    """``Multiple_Tree_Mining`` as a plain dict loop over Fig 3 items.

    Same contract and output as
    :func:`repro.core.multi_tree.mine_forest` — every record field and
    the order included — computed independently: per-tree items from
    :func:`repro.core.single_tree.mine_tree`, supporters collected per
    item key, and its own sort.
    """
    params = MiningParams(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=minsup,
        max_generation_gap=max_generation_gap,
        max_height=max_height,
    )
    supporters: dict[tuple, list[int]] = defaultdict(list)
    occurrence_totals: Counter[tuple] = Counter()
    for position, tree in enumerate(trees):
        # Distances ignored: sum occurrences across distances first,
        # so mine unfiltered and apply minoccur after.
        items = mine_tree(
            tree,
            maxdist=params.maxdist,
            minoccur=1 if ignore_distance else params.minoccur,
            max_generation_gap=params.max_generation_gap,
            max_height=params.max_height,
        )
        if ignore_distance:
            collapsed: Counter[tuple[str, str]] = Counter()
            for item in items:
                collapsed[item.label_key] += item.occurrences
            for label_key, occurrences in collapsed.items():
                if occurrences >= params.minoccur:
                    key = (label_key[0], label_key[1], None)
                    supporters[key].append(position)
                    occurrence_totals[key] += occurrences
        else:
            for item in items:
                supporters[item.key].append(position)
                occurrence_totals[item.key] += item.occurrences
    frequent = [
        (key, positions)
        for key, positions in supporters.items()
        if len(positions) >= params.minsup
    ]
    frequent.sort(
        key=lambda entry: (
            -len(entry[1]),
            entry[0][0],
            entry[0][1],
            -1.0 if entry[0][2] is None else entry[0][2],
        )
    )
    return [
        FrequentCousinPair(
            label_a=key[0],
            label_b=key[1],
            distance=key[2],
            support=len(positions),
            tree_indexes=tuple(positions),
            total_occurrences=occurrence_totals[key],
        )
        for key, positions in frequent
    ]
