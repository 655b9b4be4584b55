"""Pickling of trees (the transport format of the parallel engine)."""

import pickle
import sys

import pytest

from repro.trees.newick import parse_newick, write_newick
from repro.trees.tree import Tree


def roundtrip(tree: Tree) -> Tree:
    return pickle.loads(pickle.dumps(tree))


class TestPickleRoundtrip:
    def test_structure_labels_and_name_survive(self):
        tree = parse_newick("((a:1.5,b):2,(c,d));")
        tree.name = "fixture"
        clone = roundtrip(tree)
        assert clone.name == "fixture"
        assert clone.isomorphic_to(tree)
        assert write_newick(clone) == write_newick(tree)

    def test_node_ids_and_parents_survive(self):
        tree = parse_newick("((a,b),(c,d));")
        clone = roundtrip(tree)
        for node in tree.preorder():
            twin = clone.node(node.node_id)
            assert twin.label == node.label
            assert twin.length == node.length
            assert (twin.parent.node_id if twin.parent else None) == (
                node.parent.node_id if node.parent else None
            )

    def test_clone_is_independent(self):
        tree = parse_newick("(a,b);")
        clone = roundtrip(tree)
        clone.add_child(clone.root, label="c")
        assert len(clone) == len(tree) + 1

    def test_clone_stays_mutable(self):
        # add_child on a restored tree must keep allocating fresh ids.
        tree = parse_newick("(a,b);")
        clone = roundtrip(tree)
        node = clone.add_child(clone.root, label="x")
        assert node.node_id not in {n.node_id for n in tree.preorder()}

    def test_empty_tree(self):
        clone = roundtrip(Tree(name="void"))
        assert clone.root is None
        assert len(clone) == 0
        assert clone.name == "void"

    def test_deep_chain_does_not_overflow(self):
        # Far deeper than the interpreter stack: default pickling of
        # the linked node graph would hit RecursionError here.
        from repro.trees.arena import TreeArena

        depth = max(sys.getrecursionlimit() * 3, 3000)
        tree = Tree()
        node = tree.add_root(label="n0")
        for i in range(1, depth):
            node = tree.add_child(node, label=f"n{i}")
        clone = roundtrip(tree)
        assert len(clone) == depth
        assert (
            TreeArena.from_tree(clone).fingerprint()
            == TreeArena.from_tree(tree).fingerprint()
        )

    def test_explicit_ids_preserved(self):
        tree = Tree()
        root = tree.add_root(label="r", node_id=10)
        tree.add_child(root, label="a", node_id=99)
        clone = roundtrip(tree)
        assert clone.node(99).label == "a"
        with pytest.raises(Exception):
            clone.node(0)
