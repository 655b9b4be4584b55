"""Phylogenetic data clustering with the cousin-based distance.

Section 7 lists "finding different types of patterns in the trees and
using them in phylogenetic data clustering" as future work, citing
Stockham, Wang & Warnow's postprocessing of parsimony analyses: when
the set of equally parsimonious trees is too heterogeneous for a
single informative consensus, partition it into clusters and report a
consensus per cluster.

This module implements that workflow on top of the paper's own tree
distance (Section 5.3):

1. all pairwise cousin-based distances
   (:func:`repro.core.distance.distance_matrix`);
2. agglomerative hierarchical clustering (single / complete / average
   linkage) down to ``k`` clusters;
3. a medoid per cluster, and — when the trees share taxa — a
   per-cluster consensus tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.distance import distance_matrix
from repro.core.params import DistanceMode, validate_mode
from repro.errors import MiningParameterError
from repro.obs.context import get_registry, get_tracer
from repro.trees.arena import TreeLike
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = ["ClusteringResult", "cluster_trees", "cluster_consensus"]

_LINKAGES = ("single", "complete", "average")


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of a hierarchical clustering run.

    Attributes
    ----------
    clusters:
        Tree positions per cluster, each sorted ascending; clusters are
        ordered by their smallest member.
    medoids:
        One tree position per cluster: the member minimising the sum
        of distances to its cluster mates.
    matrix:
        The pairwise distance matrix the clustering used.
    """

    clusters: tuple[tuple[int, ...], ...]
    medoids: tuple[int, ...]
    matrix: tuple[tuple[float, ...], ...]

    def assignment(self) -> dict[int, int]:
        """``{tree position: cluster index}``."""
        return {
            member: index
            for index, cluster in enumerate(self.clusters)
            for member in cluster
        }


def _linkage_distance(
    matrix: Sequence[Sequence[float]],
    left: Sequence[int],
    right: Sequence[int],
    linkage: str,
) -> float:
    values = [matrix[i][j] for i in left for j in right]
    if linkage == "single":
        return min(values)
    if linkage == "complete":
        return max(values)
    return sum(values) / len(values)


def cluster_trees(
    trees: Sequence[TreeLike],
    k: int,
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    linkage: str = "average",
    maxdist: float = 1.5,
    minoccur: int = 1,
    engine: "MiningEngine | None" = None,
) -> ClusteringResult:
    """Agglomerative clustering of trees under the cousin distance.

    Parameters
    ----------
    trees:
        The trees to cluster (two or more).
    k:
        Number of clusters to stop at (``1 <= k <= len(trees)``).
    mode, maxdist, minoccur:
        Forwarded to the cousin-based distance.
    linkage:
        ``"single"``, ``"complete"`` or ``"average"`` (default).
    engine:
        Optional :class:`repro.engine.MiningEngine` for the distance
        matrix's per-tree mining (counted in its stats, identical
        output).
    """
    # Validate every knob before the expensive matrix build.
    mode = validate_mode(mode)
    if linkage not in _LINKAGES:
        raise MiningParameterError(
            f"linkage must be one of {_LINKAGES}, got {linkage!r}"
        )
    if not 1 <= k <= len(trees):
        raise MiningParameterError(
            f"k must be between 1 and {len(trees)}, got {k}"
        )
    tracer = get_tracer()
    with tracer.span("cluster.matrix", trees=len(trees), mode=mode.value):
        matrix = distance_matrix(
            trees, mode=mode, maxdist=maxdist, minoccur=minoccur, engine=engine
        )
    clusters: list[list[int]] = [[position] for position in range(len(trees))]
    with tracer.span("cluster.agglomerate", k=k, linkage=linkage):
        merges = 0
        while len(clusters) > k:
            best_pair = None
            best_value = None
            for i in range(len(clusters)):
                for j in range(i + 1, len(clusters)):
                    value = _linkage_distance(
                        matrix, clusters[i], clusters[j], linkage
                    )
                    if best_value is None or value < best_value:
                        best_value = value
                        best_pair = (i, j)
            assert best_pair is not None
            i, j = best_pair
            clusters[i] = sorted(clusters[i] + clusters[j])
            del clusters[j]
            merges += 1
        clusters.sort(key=lambda cluster: cluster[0])
        if merges:
            get_registry().counter("cluster.merges").add(merges)

    medoids = []
    with tracer.span("cluster.medoids", clusters=len(clusters)):
        for cluster in clusters:
            medoids.append(
                min(
                    cluster,
                    key=lambda member: (
                        sum(matrix[member][other] for other in cluster),
                        member,
                    ),
                )
            )
    return ClusteringResult(
        clusters=tuple(tuple(cluster) for cluster in clusters),
        medoids=tuple(medoids),
        matrix=tuple(tuple(row) for row in matrix),
    )


def cluster_consensus(
    trees: Sequence[Tree],
    k: int,
    method: str = "majority",
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    linkage: str = "average",
    engine: "MiningEngine | None" = None,
) -> list[Tree]:
    """Cluster same-taxa trees, then build one consensus per cluster.

    The Stockham-style postprocessing workflow: the result is ``k``
    consensus trees, one per cluster, ordered like the clusters of
    :func:`cluster_trees`.

    Raises
    ------
    ConsensusError
        If the trees do not all share one taxon set (consensus methods
        require it; clustering alone does not).
    """
    from repro.consensus.base import consensus

    result = cluster_trees(trees, k, mode=mode, linkage=linkage, engine=engine)
    return [
        consensus([trees[member] for member in cluster], method=method)
        for cluster in result.clusters
    ]
