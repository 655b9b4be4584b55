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
  labels, the compact form the fastmine kernel and the engine's cache
  operate on (see ``docs/perf.md``);
- :mod:`repro.trees.ops` — structural operations (copy, restrict,
  relabel);
- :mod:`repro.trees.validate` — structural invariants used by tests.
"""

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
