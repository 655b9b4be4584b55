"""Rooted unordered labeled trees and supporting algorithms.

This subpackage provides the tree substrate on which the cousin-pair
mining algorithms of the paper operate:

- :mod:`repro.trees.tree` — the :class:`~repro.trees.tree.Tree` and
  :class:`~repro.trees.tree.Node` data structures (unique identification
  numbers, optional labels, children sets);
- :mod:`repro.trees.newick` — a self-contained Newick reader and writer
  (the environment substitute for Biopython / ete3); the reader fills
  :class:`~repro.trees.arena.TreeArena` columns straight from text;
- :mod:`repro.trees.traversal` — traversal orders, depth/height tables,
  ancestor tables and least-common-ancestor queries (the preprocessing
  step of Section 3 of the paper);
- :mod:`repro.trees.bipartition` — clusters (clades) and split-based
  comparisons such as Robinson–Foulds, used by the consensus methods;
- :mod:`repro.trees.nexus` — NEXUS tree-file support (the format
  TreeBASE distributes) and :func:`~repro.trees.nexus.read_arenas`,
  which reads either format into arenas;
- :mod:`repro.trees.build` — rooted triples and the BUILD algorithm
  (Aho et al.), the supertree substrate;
- :mod:`repro.trees.arena` — flat-array arenas with interned integer
  labels, the compact form the fastmine kernel and the content
  addresses operate on (see ``docs/perf.md``);
- :mod:`repro.trees.ops` — structural operations (copy, restrict,
  relabel);
- :mod:`repro.trees.validate` — structural invariants used by tests.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.trees.arena import LabelTable, TreeArena, forest_arenas
    from repro.trees.tree import Node, Tree
    from repro.trees.newick import parse_arenas, parse_newick, parse_forest, write_newick
    from repro.trees.traversal import TreeIndex
    from repro.trees.bipartition import (
        clusters,
        nontrivial_clusters,
        robinson_foulds,
        tree_from_clusters,
    )
    from repro.trees.nexus import (
        parse_nexus,
        parse_nexus_arenas,
        read_arenas,
        read_nexus_file,
        write_nexus,
    )
    from repro.trees.build import Triple, tree_triples, build_from_triples, BuildConflict
    from repro.trees.rooting import outgroup_root, midpoint_root, reroot_on_edge
    from repro.trees.drawing import render_tree, render_with_highlights, render_pattern_report
    from repro.trees.ops import (
        copy_tree,
        relabel,
        restrict_to_taxa,
        collapse_unary,
        tree_from_parent_list,
    )

__all__ = [
    "LabelTable",
    "Node",
    "Tree",
    "TreeArena",
    "forest_arenas",
    "TreeIndex",
    "parse_arenas",
    "parse_newick",
    "parse_forest",
    "write_newick",
    "clusters",
    "nontrivial_clusters",
    "robinson_foulds",
    "tree_from_clusters",
    "copy_tree",
    "relabel",
    "restrict_to_taxa",
    "collapse_unary",
    "tree_from_parent_list",
    "parse_nexus",
    "parse_nexus_arenas",
    "read_arenas",
    "write_nexus",
    "read_nexus_file",
    "Triple",
    "tree_triples",
    "build_from_triples",
    "BuildConflict",
    "outgroup_root",
    "midpoint_root",
    "reroot_on_edge",
    "render_tree",
    "render_with_highlights",
    "render_pattern_report",
]

# Name -> defining submodule.  Each submodule is imported the first time
# one of its names is looked up (PEP 562), so importing this package
# loads none of them.
_EXPORTS = {
    "LabelTable": "arena",
    "TreeArena": "arena",
    "forest_arenas": "arena",
    "Node": "tree",
    "Tree": "tree",
    "parse_arenas": "newick",
    "parse_newick": "newick",
    "parse_forest": "newick",
    "write_newick": "newick",
    "TreeIndex": "traversal",
    "clusters": "bipartition",
    "nontrivial_clusters": "bipartition",
    "robinson_foulds": "bipartition",
    "tree_from_clusters": "bipartition",
    "parse_nexus": "nexus",
    "parse_nexus_arenas": "nexus",
    "read_arenas": "nexus",
    "read_nexus_file": "nexus",
    "write_nexus": "nexus",
    "Triple": "build",
    "tree_triples": "build",
    "build_from_triples": "build",
    "BuildConflict": "build",
    "outgroup_root": "rooting",
    "midpoint_root": "rooting",
    "reroot_on_edge": "rooting",
    "render_tree": "drawing",
    "render_with_highlights": "drawing",
    "render_pattern_report": "drawing",
    "copy_tree": "ops",
    "relabel": "ops",
    "restrict_to_taxa": "ops",
    "collapse_unary": "ops",
    "tree_from_parent_list": "ops",
}


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
