"""repro — cousin-pair mining in rooted unordered labeled trees.

A production-grade reproduction of:

    Dennis Shasha, Jason T. L. Wang, Sen Zhang.
    *Unordered Tree Mining with Applications to Phylogeny.*
    ICDE 2004.

The package mines *cousin pairs* — pairs of labeled nodes sharing a
parent, grandparent, great-grandparent, ... — from single trees,
forests, and free trees, and applies them to phylogenetics: pattern
co-occurrence across studies, consensus-tree quality evaluation, and
cross-taxon tree distances with kernel-tree selection.

Quickstart
----------
>>> import repro
>>> tree = repro.parse_newick("((a,b),(c,(a,d)));")
>>> items = repro.mine_tree(tree, maxdist=1.5)
>>> items[0].describe()
'(a, a) at distance 1.5 (first cousins once removed) x1'

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the reproduction of every table and figure of the paper.
"""

from importlib import import_module
from typing import TYPE_CHECKING

# Bound eagerly: ``consensus`` is also the name of a subpackage, and
# importing any ``repro.consensus.*`` module would otherwise bind the
# subpackage to this attribute before ``__getattr__`` could run.
from repro.consensus.base import consensus
from repro.errors import (
    ReproError,
    TreeError,
    NewickError,
    MiningParameterError,
    ConsensusError,
    ParsimonyError,
    AlignmentError,
    FreeTreeError,
    DatasetError,
)

if TYPE_CHECKING:
    from repro.trees.tree import Node, Tree
    from repro.trees.traversal import TreeIndex
    from repro.trees.newick import parse_newick, parse_forest, write_newick
    from repro.trees.bipartition import robinson_foulds
    from repro.core.params import MiningParams, DEFAULT_PARAMS, DistanceMode
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
    from repro.core.distance import tree_distance
    from repro.core.kernel import KernelResult, find_kernel_trees
    from repro.core.freetree import FreeTree, mine_free_tree, mine_graph_forest
    from repro.core.treerank import updown_distance, treerank_score, rank_trees
    from repro.core.weighted import mine_tree_weighted

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "TreeError",
    "NewickError",
    "MiningParameterError",
    "ConsensusError",
    "ParsimonyError",
    "AlignmentError",
    "FreeTreeError",
    "DatasetError",
    # trees
    "Node",
    "Tree",
    "TreeIndex",
    "parse_newick",
    "parse_forest",
    "write_newick",
    "robinson_foulds",
    # core
    "ANY",
    "MiningParams",
    "DEFAULT_PARAMS",
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
    "DistanceMode",
    "KernelResult",
    "find_kernel_trees",
    "FreeTree",
    "mine_free_tree",
    "mine_graph_forest",
    "updown_distance",
    "treerank_score",
    "rank_trees",
    "mine_tree_weighted",
    # consensus
    "consensus",
]

# Name -> defining submodule.  Each submodule is imported the first time
# one of its names is looked up (PEP 562), so importing this package
# loads none of them.
_EXPORTS = {
    "Node": "trees.tree",
    "Tree": "trees.tree",
    "TreeIndex": "trees.traversal",
    "parse_newick": "trees.newick",
    "parse_forest": "trees.newick",
    "write_newick": "trees.newick",
    "robinson_foulds": "trees.bipartition",
    "MiningParams": "core.params",
    "DEFAULT_PARAMS": "core.params",
    "ANY": "core.cousins",
    "CousinPair": "core.cousins",
    "CousinPairItem": "core.cousins",
    "cousin_distance": "core.cousins",
    "valid_distances": "core.cousins",
    "mine_tree": "core.fastmine",
    "enumerate_cousin_pairs": "core.fastmine",
    "FrequentCousinPair": "core.multi_tree",
    "mine_forest": "core.multi_tree",
    "support": "core.multi_tree",
    "CousinPairSet": "core.pairset",
    "similarity_score": "core.similarity",
    "average_similarity": "core.similarity",
    "tree_distance": "core.distance",
    "DistanceMode": "core.params",
    "KernelResult": "core.kernel",
    "find_kernel_trees": "core.kernel",
    "FreeTree": "core.freetree",
    "mine_free_tree": "core.freetree",
    "mine_graph_forest": "core.freetree",
    "updown_distance": "core.treerank",
    "treerank_score": "core.treerank",
    "rank_trees": "core.treerank",
    "mine_tree_weighted": "core.weighted",
}


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
