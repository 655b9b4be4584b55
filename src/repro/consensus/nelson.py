"""Nelson consensus [Nelson 1979].

Nelson's method selects the set of mutually compatible clusters with
the greatest total *replication* (number of input trees containing each
cluster) and builds the tree realising it.  Because clusters over a
common taxon set form a laminar family exactly when pairwise
compatible, the selection is a maximum-weight clique in the
compatibility graph of the distinct clusters.

The clique problem is solved exactly with :mod:`networkx`'s
branch-and-bound ``max_weight_clique``; profile cluster counts are
small (bounded by taxa x trees), so this is fast in practice.  For
determinism across runs, clusters enter the graph in sorted order and
ties between maximum cliques are broken by preferring the
lexicographically smallest cluster set.

networkx is imported inside :func:`nelson_consensus`, its only use in
the package, so no other code path pays for loading it.
"""

from __future__ import annotations

from typing import Sequence

from repro.consensus.base import validate_profile
from repro.trees.bipartition import cluster_counts, compatible, tree_from_clusters
from repro.trees.tree import Tree

__all__ = ["nelson_consensus"]


def nelson_consensus(trees: Sequence[Tree]) -> Tree:
    """The Nelson consensus of a profile of same-taxa rooted trees."""
    import networkx as nx

    taxa = validate_profile(trees)
    counts = cluster_counts(trees)
    if not counts:
        return tree_from_clusters(taxa, [], name="nelson_consensus")

    ordered = sorted(counts, key=lambda cluster: (len(cluster), sorted(cluster)))
    graph = nx.Graph()
    for index, cluster in enumerate(ordered):
        graph.add_node(index, weight=counts[cluster])
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if compatible(ordered[i], ordered[j]):
                graph.add_edge(i, j)

    clique, _weight = nx.algorithms.clique.max_weight_clique(
        graph, weight="weight"
    )
    chosen = [ordered[index] for index in clique]
    return tree_from_clusters(taxa, chosen, name="nelson_consensus")
