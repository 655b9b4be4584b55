"""The paper's primary contribution: cousin-pair mining.

Modules
-------
- :mod:`repro.core.params` — the algorithm parameters of Table 2;
- :mod:`repro.core.cousins` — the cousin-distance definition (Figure 2)
  and the cousin-pair-item record (Table 1);
- :mod:`repro.core.single_tree` — ``Single_Tree_Mining`` (Figure 3),
  the pointer-walking reference implementation;
- :mod:`repro.core.fastmine` — the interned flat-array kernel the
  package actually mines with (differentially tested against
  :mod:`~repro.core.single_tree` and :mod:`~repro.core.updown`);
- :mod:`repro.core.updown` — the paper's literal up-*i*/down-*j*
  formulation, kept for differential testing and ablation;
- :mod:`repro.core.reference` — a naive all-pairs reference miner;
- :mod:`repro.core.multi_tree` — ``Multiple_Tree_Mining`` and support;
- :mod:`repro.core.pairset` — multiset algebra over cousin pair items
  (footnote 2 of the paper);
- :mod:`repro.core.similarity` — the consensus-quality score of
  Section 5.2 (Equations 4-5);
- :mod:`repro.core.distance` — the four cousin-based tree distances of
  Section 5.3 (Equation 6);
- :mod:`repro.core.distvec` — the packed sparse-vector distance kernel
  those distances (and every matrix build) run on;
- :mod:`repro.core.topk` — exact single-query top-k similarity search
  over those vectors (one vectorised distance row, stably sorted);
- :mod:`repro.core.kernel` — kernel-tree selection across groups of
  phylogenies (Section 5.3);
- :mod:`repro.core.freetree` — the free-tree / undirected-acyclic-graph
  extension of Section 6;
- :mod:`repro.core.treerank` — the UpDown distance / TreeRank ranking
  (the paper's reference [39], covering ancestor-descendant pairs);
- :mod:`repro.core.weighted` — cousin mining on trees with weighted
  edges (the paper's future work i);
- :mod:`repro.core.expectations` — closed-form pair counts on
  complete k-ary trees (the arithmetic behind Figure 4).
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.params import (
        MiningParams,
        DEFAULT_PARAMS,
        DistanceMode,
        validate_mode,
    )
    from repro.core.cousins import (
        ANY,
        CousinPair,
        CousinPairItem,
        cousin_distance,
        valid_distances,
    )
    from repro.core.fastmine import mine_tree, enumerate_cousin_pairs
    from repro.core.multi_tree import FrequentCousinPair, mine_forest, support
    from repro.core.pairset import CousinPairSet
    from repro.core.similarity import similarity_score, average_similarity
    from repro.core.distance import (
        tree_distance,
        distance_matrix,
        pairset_distance,
        pairset_distance_matrix,
    )
    from repro.core.distvec import DistanceVectors
    from repro.core.topk import TopKResult, topk_search, topk_similar
    from repro.core.kernel import KernelResult, find_kernel_trees
    from repro.core.freetree import FreeTree, mine_free_tree, mine_graph_forest
    from repro.core.treerank import updown_matrix, updown_distance, treerank_score, rank_trees
    from repro.core.weighted import WeightedPairItem, mine_tree_weighted

__all__ = [
    "ANY",
    "MiningParams",
    "DEFAULT_PARAMS",
    "validate_mode",
    "CousinPair",
    "CousinPairItem",
    "cousin_distance",
    "valid_distances",
    "mine_tree",
    "enumerate_cousin_pairs",
    "FrequentCousinPair",
    "mine_forest",
    "support",
    "CousinPairSet",
    "similarity_score",
    "average_similarity",
    "tree_distance",
    "distance_matrix",
    "pairset_distance",
    "pairset_distance_matrix",
    "DistanceMode",
    "DistanceVectors",
    "TopKResult",
    "topk_search",
    "topk_similar",
    "KernelResult",
    "find_kernel_trees",
    "FreeTree",
    "mine_free_tree",
    "mine_graph_forest",
    "updown_matrix",
    "updown_distance",
    "treerank_score",
    "rank_trees",
    "WeightedPairItem",
    "mine_tree_weighted",
]

# Name -> defining submodule.  Each submodule is imported the first time
# one of its names is looked up (PEP 562), so importing this package
# loads none of them.
_EXPORTS = {
    "MiningParams": "params",
    "DEFAULT_PARAMS": "params",
    "validate_mode": "params",
    "ANY": "cousins",
    "CousinPair": "cousins",
    "CousinPairItem": "cousins",
    "cousin_distance": "cousins",
    "valid_distances": "cousins",
    "mine_tree": "fastmine",
    "enumerate_cousin_pairs": "fastmine",
    "FrequentCousinPair": "multi_tree",
    "mine_forest": "multi_tree",
    "support": "multi_tree",
    "CousinPairSet": "pairset",
    "similarity_score": "similarity",
    "average_similarity": "similarity",
    "tree_distance": "distance",
    "distance_matrix": "distance",
    "pairset_distance": "distance",
    "pairset_distance_matrix": "distance",
    "DistanceMode": "params",
    "DistanceVectors": "distvec",
    "TopKResult": "topk",
    "topk_search": "topk",
    "topk_similar": "topk",
    "KernelResult": "kernel",
    "find_kernel_trees": "kernel",
    "FreeTree": "freetree",
    "mine_free_tree": "freetree",
    "mine_graph_forest": "freetree",
    "updown_matrix": "treerank",
    "updown_distance": "treerank",
    "treerank_score": "treerank",
    "rank_trees": "treerank",
    "WeightedPairItem": "weighted",
    "mine_tree_weighted": "weighted",
}


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
