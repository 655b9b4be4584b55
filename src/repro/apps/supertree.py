"""Supertree assembly from kernel trees (Section 5.3's motivation).

The paper proposes kernel trees as "a good starting point in building a
supertree for the phylogenies in the g groups".  This module finishes
that pipeline:

1. take one representative tree per group (typically the kernel trees
   of :func:`repro.core.kernel.find_kernel_trees`);
2. decompose each into its rooted triples
   (:func:`repro.trees.build.tree_triples`), weighting each triple by
   how many input trees display it;
3. resolve conflicts greedily — triples are admitted best-weight-first,
   each admission checked by a full BUILD feasibility test — and
4. return the BUILD tree over the union of all taxa.

The greedy weighted-triple strategy is a standard, deterministic
supertree heuristic (conflicts are genuinely NP-hard to resolve
optimally); ties break lexicographically so results are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.errors import MiningParameterError
from repro.trees.build import BuildConflict, Triple, build_from_triples, tree_triples
from repro.trees.tree import Tree

__all__ = ["SupertreeResult", "build_supertree"]


@dataclass(frozen=True)
class SupertreeResult:
    """Outcome of a supertree assembly.

    Attributes
    ----------
    tree:
        The assembled supertree over the union of input taxa.
    admitted:
        The triples (with weights) the greedy pass kept.
    rejected:
        The triples dropped because admitting them would have made the
        set unrealisable.
    """

    tree: Tree
    admitted: tuple[tuple[Triple, int], ...]
    rejected: tuple[tuple[Triple, int], ...]

    @property
    def conflict_count(self) -> int:
        """How many weighted triples were sacrificed."""
        return len(self.rejected)


def build_supertree(
    trees: Sequence[Tree],
    name: str = "supertree",
) -> SupertreeResult:
    """Assemble a rooted supertree from trees with overlapping taxa.

    Parameters
    ----------
    trees:
        One or more leaf-labeled trees.  Taxon sets may differ; the
        output spans their union.

    Raises
    ------
    MiningParameterError
        If no trees are given (also a ``ValueError``).
    TreeError
        If a tree has duplicate leaf labels.
    """
    if not trees:
        raise MiningParameterError("supertree assembly needs at least one tree")
    taxa: set[str] = set()
    weights: Counter[Triple] = Counter()
    for tree in trees:
        taxa |= tree.leaf_labels()
        for triple in tree_triples(tree):
            weights[triple] += 1
    # Discard triples contradicted by a better-supported resolution of
    # the same taxon set before the (more expensive) greedy phase; the
    # losers count as conflicts and are reported as rejected.
    admitted: list[tuple[Triple, int]] = []
    rejected: list[tuple[Triple, int]] = []
    best_by_taxa: dict[frozenset[str], tuple[int, Triple]] = {}
    for triple, weight in sorted(
        weights.items(), key=lambda item: (item[1], item[0].a, item[0].b, item[0].c)
    ):
        key = triple.taxa
        incumbent = best_by_taxa.get(key)
        candidate = (weight, triple)
        if incumbent is None:
            best_by_taxa[key] = candidate
        elif _prefer(candidate, incumbent):
            rejected.append((incumbent[1], incumbent[0]))
            best_by_taxa[key] = candidate
        else:
            rejected.append((triple, weight))
    survivors = sorted(
        ((weight, triple) for weight, triple in best_by_taxa.values()),
        key=lambda pair: (-pair[0], pair[1].a, pair[1].b, pair[1].c),
    )
    current: list[Triple] = []
    for weight, triple in survivors:
        candidate_set = current + [triple]
        try:
            build_from_triples(taxa, candidate_set)
        except BuildConflict:
            rejected.append((triple, weight))
            continue
        current = candidate_set
        admitted.append((triple, weight))

    tree = build_from_triples(taxa, current, name=name)
    return SupertreeResult(
        tree=tree,
        admitted=tuple(admitted),
        rejected=tuple(rejected),
    )


def _prefer(candidate: tuple[int, Triple], incumbent: tuple[int, Triple]) -> bool:
    if candidate[0] != incumbent[0]:
        return candidate[0] > incumbent[0]
    left, right = candidate[1], incumbent[1]
    return (left.a, left.b, left.c) < (right.a, right.b, right.c)
