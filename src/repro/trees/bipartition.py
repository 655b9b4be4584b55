"""Clusters (clades), compatibility and split-based tree comparison.

A *cluster* of a rooted phylogeny is the set of leaf labels below one
internal node.  Clusters are the currency of the consensus methods of
Section 5.2 of the paper (strict, majority, semi-strict, Adams, Nelson)
and of the Robinson–Foulds distance, which this package implements as
the classical "same taxa only" baseline that the paper's cousin-based
tree distance is contrasted with (Section 5.3).

All functions here treat leaf labels as the taxa.  Trees must have
uniquely labeled leaves for these operations to be meaningful;
:func:`clusters` raises :class:`~repro.errors.TreeError` on duplicates.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.errors import ConsensusError, TreeError
from repro.trees.tree import Node, Tree

__all__ = [
    "clusters",
    "nontrivial_clusters",
    "cluster_counts",
    "compatible",
    "all_compatible",
    "compatible_with_tree",
    "robinson_foulds",
    "tree_from_clusters",
]


def clusters(tree: Tree) -> set[frozenset[str]]:
    """All clusters of ``tree``, including singletons and the full set.

    The cluster of a node is the frozenset of leaf labels in its
    subtree.  Unlabeled leaves are not allowed.

    Raises
    ------
    TreeError
        If the tree is empty, a leaf is unlabeled, or two leaves share
        a label.
    """
    if tree.root is None:
        raise TreeError("empty tree has no clusters")
    below: dict[int, frozenset[str]] = {}
    seen_labels: set[str] = set()
    result: set[frozenset[str]] = set()
    for node in tree.postorder():
        if node.is_leaf:
            if node.label is None:
                raise TreeError(f"leaf {node.node_id} is unlabeled")
            if node.label in seen_labels:
                raise TreeError(f"duplicate leaf label {node.label!r}")
            seen_labels.add(node.label)
            cluster = frozenset((node.label,))
        else:
            cluster = frozenset().union(
                *(below.pop(child.node_id) for child in node.children)
            )
        below[node.node_id] = cluster
        result.add(cluster)
    return result


def nontrivial_clusters(tree: Tree) -> set[frozenset[str]]:
    """Clusters excluding singletons and the full taxon set.

    These are the *informative* clusters: the ones that distinguish
    tree topologies over a fixed taxon set.
    """
    taxa = frozenset(tree.leaf_labels())
    return {
        cluster
        for cluster in clusters(tree)
        if len(cluster) > 1 and cluster != taxa
    }


def cluster_counts(trees: Sequence[Tree]) -> Counter[frozenset[str]]:
    """How many input trees contain each nontrivial cluster.

    This is the replication count used by the majority-rule and Nelson
    consensus methods.
    """
    counts: Counter[frozenset[str]] = Counter()
    for tree in trees:
        counts.update(nontrivial_clusters(tree))
    return counts


def compatible(first: frozenset[str], second: frozenset[str]) -> bool:
    """Whether two clusters can coexist in one rooted tree.

    Two clusters are compatible when they are disjoint or one contains
    the other.  A family of pairwise-compatible clusters is laminar and
    therefore jointly realisable as a rooted tree.
    """
    if first.isdisjoint(second):
        return True
    return first <= second or second <= first


def all_compatible(family: Iterable[frozenset[str]]) -> bool:
    """Whether every pair in ``family`` is compatible."""
    items = list(family)
    for i, first in enumerate(items):
        for second in items[i + 1 :]:
            if not compatible(first, second):
                return False
    return True


def compatible_with_tree(cluster: frozenset[str], tree: Tree) -> bool:
    """Whether ``cluster`` is compatible with every cluster of ``tree``."""
    return all(compatible(cluster, other) for other in nontrivial_clusters(tree))


def robinson_foulds(
    first: Tree, second: Tree, normalized: bool = False
) -> float:
    """The Robinson–Foulds (symmetric cluster) distance for rooted trees.

    Counts the clusters present in exactly one of the two trees.  This
    measure — like the COMPONENT tool discussed in Section 5.3 of the
    paper — requires both trees to carry the *same* taxa; the
    cousin-based :func:`repro.core.distance.tree_distance` does not.

    Parameters
    ----------
    normalized:
        When true, divide by the total number of nontrivial clusters in
        both trees, mapping the distance into [0, 1].

    Raises
    ------
    ConsensusError
        If the two trees have different leaf-label sets.
    """
    if first.leaf_labels() != second.leaf_labels():
        raise ConsensusError(
            "Robinson-Foulds requires identical taxa; "
            "use repro.core.distance.tree_distance for unequal taxon sets"
        )
    clusters_a = nontrivial_clusters(first)
    clusters_b = nontrivial_clusters(second)
    symmetric = len(clusters_a ^ clusters_b)
    if not normalized:
        return float(symmetric)
    total = len(clusters_a) + len(clusters_b)
    return symmetric / total if total else 0.0


def tree_from_clusters(
    taxa: Iterable[str],
    family: Iterable[frozenset[str]],
    name: str | None = None,
) -> Tree:
    """Build the rooted tree realising a compatible cluster family.

    Parameters
    ----------
    taxa:
        The full taxon set (the future leaf labels).
    family:
        Nontrivial clusters; must be pairwise compatible and subsets of
        ``taxa``.  Singletons and the full set may be included and are
        ignored.

    Returns
    -------
    Tree
        Leaves are labeled with the taxa; internal nodes are unlabeled.
        The tree contains an internal node for exactly the clusters in
        ``family`` (plus the root).

    Raises
    ------
    ConsensusError
        If the family is not laminar or mentions unknown taxa.
    """
    taxa_set = frozenset(taxa)
    if not taxa_set:
        raise ConsensusError("cannot build a tree over an empty taxon set")
    nontrivial: set[frozenset[str]] = set()
    for cluster in family:
        if not cluster <= taxa_set:
            extra = sorted(cluster - taxa_set)
            raise ConsensusError(f"cluster mentions unknown taxa: {extra}")
        if 1 < len(cluster) < len(taxa_set):
            nontrivial.add(cluster)
    if not all_compatible(nontrivial):
        raise ConsensusError("cluster family is not laminar")

    # Sort big-to-small so each cluster's parent is already in the tree;
    # equal sizes go by their sorted taxa, so siblings come out in one
    # canonical order rather than the set's (string-hash) order.
    ordered = sorted(
        nontrivial, key=lambda cluster: (-len(cluster), sorted(cluster))
    )
    tree = Tree(name=name)
    root = tree.add_root()
    node_cluster: dict[int, frozenset[str]] = {root.node_id: taxa_set}
    # For each cluster, its parent is the smallest already-placed cluster
    # containing it; by the big-to-small order a linear scan suffices.
    placed: list[tuple[frozenset[str], Node]] = [(taxa_set, root)]
    for cluster in ordered:
        parent_node = root
        parent_size = len(taxa_set)
        for candidate, node in placed:
            if cluster <= candidate and len(candidate) < parent_size:
                parent_node, parent_size = node, len(candidate)
        node = tree.add_child(parent_node)
        node_cluster[node.node_id] = cluster
        placed.append((cluster, node))
    # Attach each taxon to the smallest cluster containing it.
    for taxon in sorted(taxa_set):
        parent_node = root
        parent_size = len(taxa_set)
        for candidate, node in placed:
            if taxon in candidate and len(candidate) < parent_size:
                parent_node, parent_size = node, len(candidate)
        tree.add_child(parent_node, label=taxon)
    return tree
