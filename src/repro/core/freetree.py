"""Free-tree (undirected acyclic graph) cousin mining — Section 6.

Some phylogeny reconstruction methods (maximum parsimony, maximum
likelihood) produce *unrooted* trees.  Section 6 of the paper extends
cousin mining to these free trees by redefining the cousin distance of
two labeled nodes ``u``, ``v`` purely from the path between them::

    cdist(u, v) = (m - 2) / 2          (Eq. 7)

where ``m >= 2`` is the number of edges between ``u`` and ``v`` (so two
nodes with a common neighbour are at distance 0, matching the rooted
definition's siblings; adjacent nodes — the parent-child analogue — are
excluded).

Two equivalent miners are provided:

- :func:`mine_free_tree` — drives a breadth-first exploration of the
  bounded-radius neighbourhood of every labeled node; and
- :func:`mine_free_tree_rooted` — the paper's construction: put an
  artificial root ``r`` on an arbitrarily chosen edge (Figure 11),
  making the graph a rooted tree, and enumerate all up-``i``/down-``j``
  level combinations with ``i + j = 2(d + 1)`` (Eq. 9), adjusting for
  the extra edge introduced by ``r`` when the path crosses it (Eq. 10).

Both run in ``O(|G|^2)`` and are differentially tested against each
other.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

from repro.core.cousins import CousinPairItem
from repro.core.fastmine import free_path_counts
from repro.core.params import MiningParams
from repro.errors import FreeTreeError
from repro.trees.arena import TreeArena
from repro.trees.tree import Tree

__all__ = [
    "FreeTree",
    "mine_free_tree",
    "mine_free_tree_rooted",
    "mine_graph_forest",
]


class FreeTree:
    """An undirected acyclic graph with optionally labeled nodes.

    Build with :meth:`add_node` / :meth:`add_edge`, convert from a
    rooted tree with :meth:`from_rooted`, and check structure with
    :meth:`validate`.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._labels: dict[int, str | None] = {}
        self._adjacency: dict[int, set[int]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, label: str | None = None, node_id: int | None = None) -> int:
        """Add a node; returns its id."""
        if node_id is None:
            node_id = self._next_id
        elif node_id in self._labels:
            raise FreeTreeError(f"node id {node_id} already exists")
        self._labels[node_id] = label
        self._adjacency[node_id] = set()
        self._next_id = max(self._next_id, node_id) + 1
        return node_id

    def add_edge(self, first: int, second: int) -> None:
        """Add an undirected edge between two existing nodes."""
        if first not in self._labels or second not in self._labels:
            raise FreeTreeError("both endpoints must exist before adding an edge")
        if first == second:
            raise FreeTreeError("self-loops are not allowed")
        if second in self._adjacency[first]:
            raise FreeTreeError(f"duplicate edge ({first}, {second})")
        self._adjacency[first].add(second)
        self._adjacency[second].add(first)

    @classmethod
    def from_rooted(
        cls,
        tree: Tree,
        name: str | None = None,
        suppress_root: bool = False,
    ) -> "FreeTree":
        """Forget the rooting of a :class:`~repro.trees.tree.Tree`.

        Parameters
        ----------
        suppress_root:
            When true and the root is an *unlabeled degree-2* node (the
            artifact a binary rooting introduces), the root is elided
            and its two children joined directly — the standard
            unrooting of a binary phylogeny.  Roots that carry a label
            or have other arities are kept regardless.
        """
        graph = cls(name=name if name is not None else tree.name)
        skip_root = (
            suppress_root
            and tree.root is not None
            and tree.root.label is None
            and tree.root.degree == 2
        )
        for node in tree.preorder():
            if skip_root and node is tree.root:
                continue
            graph.add_node(label=node.label, node_id=node.node_id)
        for node in tree.preorder():
            if skip_root and node is tree.root:
                continue
            for child in node.children:
                graph.add_edge(node.node_id, child.node_id)
        if skip_root:
            first, second = tree.root.children
            graph.add_edge(first.node_id, second.node_id)
        return graph

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._labels)

    def nodes(self) -> Iterator[int]:
        """All node ids."""
        return iter(self._labels)

    def label(self, node_id: int) -> str | None:
        """Label of a node (``None`` when unlabeled)."""
        try:
            return self._labels[node_id]
        except KeyError:
            raise FreeTreeError(f"no node with id {node_id}") from None

    def neighbors(self, node_id: int) -> frozenset[int]:
        """Neighbour ids of a node."""
        try:
            return frozenset(self._adjacency[node_id])
        except KeyError:
            raise FreeTreeError(f"no node with id {node_id}") from None

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges once each, as ``(small_id, large_id)``."""
        for node, neighbours in self._adjacency.items():
            for other in neighbours:
                if node < other:
                    yield (node, other)

    def edge_count(self) -> int:
        """Number of edges."""
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    def validate(self) -> None:
        """Check the graph is a non-empty connected acyclic graph.

        Raises
        ------
        FreeTreeError
            On an empty, disconnected, or cyclic graph.
        """
        if not self._labels:
            raise FreeTreeError("free tree is empty")
        if self.edge_count() != len(self._labels) - 1:
            raise FreeTreeError(
                f"a free tree on {len(self._labels)} nodes needs "
                f"{len(self._labels) - 1} edges, found {self.edge_count()}"
            )
        start = next(iter(self._labels))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for other in self._adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        if len(seen) != len(self._labels):
            raise FreeTreeError("free tree is disconnected")

    # ------------------------------------------------------------------
    # The paper's rooting construction (Figure 11)
    # ------------------------------------------------------------------
    def to_rooted(self, edge: tuple[int, int] | None = None) -> Tree:
        """Root the graph by planting an artificial node on ``edge``.

        The artificial root is unlabeled and reuses no existing id, so
        it can never participate in a cousin pair.  When ``edge`` is
        omitted the first edge is used (the choice is arbitrary and
        does not affect mining results — a property the tests verify).

        A single-node graph roots at that node directly.
        """
        self.validate()
        if len(self._labels) == 1:
            only = next(iter(self._labels))
            tree = Tree(name=self.name)
            tree.add_root(label=self._labels[only], node_id=only)
            return tree
        if edge is None:
            edge = next(iter(self.edges()))
        first, second = edge
        if second not in self._adjacency.get(first, ()):  # also catches bad ids
            raise FreeTreeError(f"({first}, {second}) is not an edge")
        tree = Tree(name=self.name)
        root_id = max(self._labels) + 1
        root = tree.add_root(node_id=root_id)
        for side_start, blocked in ((first, second), (second, first)):
            side_root = tree.add_child(
                root, label=self._labels[side_start], node_id=side_start
            )
            stack = [(side_start, blocked, side_root)]
            while stack:
                node, came_from, tree_node = stack.pop()
                for other in self._adjacency[node]:
                    if other == came_from:
                        continue
                    child = tree.add_child(
                        tree_node, label=self._labels[other], node_id=other
                    )
                    stack.append((other, node, child))
        return tree


def _edge_limit(params: MiningParams) -> int:
    """Largest path length (in edges) within ``maxdist`` (Eq. 8)."""
    return int(2 * params.maxdist) + 2


def mine_free_tree(
    graph: FreeTree,
    maxdist: float = 1.5,
    minoccur: int = 1,
) -> list[CousinPairItem]:
    """Find all qualifying cousin pair items of a free tree.

    Uses bounded breadth-first search from every labeled node: the path
    between two nodes of a free tree is unique, so counting each
    unordered labeled pair at path length ``m`` (``2 <= m <= 2*maxdist
    + 2``) once yields exactly the items of Eq. 7.

    Output contract matches :func:`repro.core.single_tree.mine_tree`.
    """
    params = MiningParams(maxdist=maxdist, minoccur=minoccur, minsup=1)
    graph.validate()
    limit = _edge_limit(params)
    counts: Counter[tuple[str, str, float]] = Counter()
    for start in graph.nodes():
        start_label = graph.label(start)
        if start_label is None:
            continue
        # BFS out to ``limit`` edges; in a tree, no node repeats.
        ring = [start]
        seen = {start}
        for path_length in range(1, limit + 1):
            next_ring: list[int] = []
            for node in ring:
                for other in graph.neighbors(node):
                    if other not in seen:
                        seen.add(other)
                        next_ring.append(other)
            if path_length >= 2:
                for other in next_ring:
                    # Count each unordered pair once.
                    if other < start:
                        continue
                    other_label = graph.label(other)
                    if other_label is None:
                        continue
                    distance = (path_length - 2) / 2.0
                    if start_label <= other_label:
                        key = (start_label, other_label, distance)
                    else:
                        key = (other_label, start_label, distance)
                    counts[key] += 1
            ring = next_ring
            if not ring:
                break
    items = [
        CousinPairItem(label_a, label_b, distance, occurrences)
        for (label_a, label_b, distance), occurrences in counts.items()
        if occurrences >= params.minoccur
    ]
    items.sort()
    return items


def mine_free_tree_rooted(
    graph: FreeTree,
    maxdist: float = 1.5,
    minoccur: int = 1,
    edge: tuple[int, int] | None = None,
) -> list[CousinPairItem]:
    """The paper's Section 6 algorithm: root on an edge, then mine.

    After planting the artificial root ``r`` on the chosen edge, the
    path length between two original nodes equals their tree path
    length, except that paths crossing ``r`` gained one edge (Eq. 10).
    The rooted tree is flattened into a
    :class:`~repro.trees.arena.TreeArena` and handed to
    :func:`repro.core.fastmine.free_path_counts`, whose one pair
    enumeration covers every ``(i, j)`` combination of Eq. 9 at once:
    pairs drawn from two distinct child subtrees of a node at depths
    ``(dl, dr)`` have path length ``dl + dr`` through it (minus 1 when
    that node is the artificial root), and each labeled node also
    pairs with its own labeled descendants ``m`` levels below.
    """
    params = MiningParams(maxdist=maxdist, minoccur=minoccur, minsup=1)
    graph.validate()
    arena = TreeArena.from_tree(graph.to_rooted(edge))
    counts = free_path_counts(
        arena, _edge_limit(params), artificial_root=len(graph) > 1
    )
    return counts.items(params.minoccur)


def mine_graph_forest(
    graphs: Sequence[FreeTree],
    maxdist: float = 1.5,
    minoccur: int = 1,
    minsup: int = 2,
) -> list[tuple[str, str, float, int]]:
    """Frequent cousin pairs across multiple free trees.

    The straightforward extension the paper mentions at the end of
    Section 6: mine each graph, then count supporting graphs per
    (labels, distance) item.

    Returns ``(label_a, label_b, distance, support)`` tuples sorted by
    descending support then labels.
    """
    params = MiningParams(maxdist=maxdist, minoccur=minoccur, minsup=minsup)
    supporters: Counter[tuple[str, str, float]] = Counter()
    for graph in graphs:
        items = mine_free_tree(
            graph, maxdist=params.maxdist, minoccur=params.minoccur
        )
        for item in items:
            supporters[item.key] += 1
    frequent = [
        (label_a, label_b, distance, count)
        for (label_a, label_b, distance), count in supporters.items()
        if count >= params.minsup
    ]
    frequent.sort(key=lambda row: (-row[3], row[0], row[1], row[2]))
    return frequent
