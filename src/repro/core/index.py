"""A queryable cousin-pair index over a tree database.

``Multiple_Tree_Mining`` answers one batch question: which pairs are
frequent right now.  A database deployment (the setting of this ICDE
paper: TreeBASE-scale collections queried repeatedly) wants the
inverted form — mine each tree once, then answer many questions
without re-scanning:

- the support of any (label pair, distance) in O(1);
- the posting list of trees containing a pattern;
- all patterns involving one label;
- top-k patterns by support;
- incremental insertion of new trees as a collection grows.

:class:`CousinPairIndex` provides exactly that, keyed by the same
mining parameters as the batch miner, and is differentially tested
against :func:`repro.core.reference.mine_forest_reference`.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.cousins import ANY, CousinPairItem
from repro.core.multi_tree import FrequentCousinPair, pattern_order
from repro.core.params import MiningParams, validate_minsup
from repro.core.fastmine import mine_tree
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = ["CousinPairIndex"]


class CousinPairIndex:
    """An inverted index from cousin-pair patterns to supporting trees.

    Parameters
    ----------
    maxdist, minoccur, max_generation_gap:
        Mining parameters fixed for the index's lifetime (queries at
        other parameters require a new index); Table 2 defaults.

    Notes
    -----
    Posting lists store tree positions in insertion order.  ``minsup``
    is *not* fixed at build time — it is a query parameter, so one
    index serves every threshold.
    """

    def __init__(
        self,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> None:
        self._params = MiningParams(
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=1,
            max_generation_gap=max_generation_gap,
            max_height=max_height,
        )
        self._tree_names: list[str | None] = []
        # (label_a, label_b, distance) -> [tree positions]
        self._postings: dict[tuple[str, str, float], list[int]] = defaultdict(list)
        # (label_a, label_b, distance) -> total occurrences across trees
        self._occurrences: Counter[tuple[str, str, float]] = Counter()
        # (label_a, label_b) -> set of tree positions (any distance)
        self._label_postings: dict[tuple[str, str], list[int]] = defaultdict(list)
        # label -> set of (label_a, label_b, distance) keys
        self._by_label: dict[str, set[tuple[str, str, float]]] = defaultdict(set)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        trees: Sequence[Tree],
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
        engine: "MiningEngine | None" = None,
    ) -> "CousinPairIndex":
        """Index a whole forest at once.

        With an ``engine``, the per-tree mining runs through
        :class:`repro.engine.MiningEngine` (parallel + cached) and the
        pre-mined items are folded in; the resulting index is
        identical to the serial build.
        """
        index = cls(
            maxdist=maxdist,
            minoccur=minoccur,
            max_generation_gap=max_generation_gap,
            max_height=max_height,
        )
        if engine is not None:
            per_tree = engine.items(
                trees,
                maxdist=maxdist,
                minoccur=minoccur,
                max_generation_gap=max_generation_gap,
                max_height=max_height,
            )
            for tree, items in zip(trees, per_tree):
                index.add_tree(tree, items=items)
        else:
            for tree in trees:
                index.add_tree(tree)
        return index

    def add_tree(self, tree: Tree, items: list[CousinPairItem] | None = None) -> int:
        """Mine one tree and fold its items in; returns its position.

        ``items`` short-circuits the mining with a pre-computed item
        list (it must equal ``mine_tree`` output at the index's
        parameters — the engine build path guarantees this).
        """
        position = len(self._tree_names)
        self._tree_names.append(tree.name)
        if items is None:
            items = mine_tree(
                tree,
                maxdist=self._params.maxdist,
                minoccur=self._params.minoccur,
                max_generation_gap=self._params.max_generation_gap,
                max_height=self._params.max_height,
            )
        seen_label_pairs: set[tuple[str, str]] = set()
        for item in items:
            self._postings[item.key].append(position)
            self._occurrences[item.key] += item.occurrences
            self._by_label[item.label_a].add(item.key)
            self._by_label[item.label_b].add(item.key)
            if item.label_key not in seen_label_pairs:
                seen_label_pairs.add(item.label_key)
                self._label_postings[item.label_key].append(position)
        return position

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def tree_count(self) -> int:
        """Number of indexed trees."""
        return len(self._tree_names)

    @property
    def pattern_count(self) -> int:
        """Number of distinct (label pair, distance) patterns."""
        return len(self._postings)

    @property
    def params(self) -> MiningParams:
        """The mining parameters the index was built with."""
        return self._params

    def tree_name(self, position: int) -> str | None:
        """Name of the tree at ``position`` (insertion order)."""
        return self._tree_names[position]

    def support(
        self, label_a: str, label_b: str, distance: float | object = ANY
    ) -> int:
        """Support of a pattern; pass ``ANY`` to ignore distances."""
        if label_a > label_b:
            label_a, label_b = label_b, label_a
        if distance is ANY:
            return len(self._label_postings.get((label_a, label_b), ()))
        return len(self._postings.get((label_a, label_b, distance), ()))

    def trees_with(
        self, label_a: str, label_b: str, distance: float | object = ANY
    ) -> tuple[int, ...]:
        """Posting list of tree positions containing the pattern."""
        if label_a > label_b:
            label_a, label_b = label_b, label_a
        if distance is ANY:
            return tuple(self._label_postings.get((label_a, label_b), ()))
        return tuple(self._postings.get((label_a, label_b, distance), ()))

    def patterns_involving(self, label: str) -> list[CousinPairItem]:
        """All patterns one label participates in, with total occurrences."""
        keys = sorted(self._by_label.get(label, ()))
        return [
            CousinPairItem(key[0], key[1], key[2], self._occurrences[key])
            for key in keys
        ]

    def frequent(self, minsup: int = 2) -> list[FrequentCousinPair]:
        """All patterns at or above ``minsup``, like ``mine_forest``.

        Output matches
        :func:`repro.core.multi_tree.mine_forest` exactly (same record
        type, same :func:`~repro.core.multi_tree.pattern_order`) — the
        index is a drop-in accelerator.
        """
        minsup = validate_minsup(minsup)
        results = [
            self._pattern(key, positions)
            for key, positions in self._postings.items()
            if len(positions) >= minsup
        ]
        results.sort(key=pattern_order)
        return results

    def top_k(self, k: int) -> list[FrequentCousinPair]:
        """The ``k`` best-supported patterns (ties by labels/distance)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return heapq.nsmallest(
            k,
            (
                self._pattern(key, positions)
                for key, positions in self._postings.items()
            ),
            key=pattern_order,
        )

    def _pattern(
        self, key: tuple[str, str, float], positions: list[int]
    ) -> FrequentCousinPair:
        return FrequentCousinPair(
            label_a=key[0],
            label_b=key[1],
            distance=key[2],
            support=len(positions),
            tree_indexes=tuple(positions),
            total_occurrences=self._occurrences[key],
        )

    def __len__(self) -> int:
        return self.pattern_count

    def __iter__(self) -> Iterator[tuple[str, str, float]]:
        return iter(sorted(self._postings))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CousinPairIndex(trees={self.tree_count}, "
            f"patterns={self.pattern_count})"
        )
