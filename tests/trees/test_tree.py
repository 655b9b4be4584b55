"""Unit tests for the Tree / Node data structures."""

import pytest

from repro.errors import TreeError
from repro.trees.tree import Tree, tree_from_edges


class TestConstruction:
    def test_empty_tree(self):
        tree = Tree()
        assert len(tree) == 0
        assert tree.root is None
        assert list(tree.preorder()) == []

    def test_add_root(self):
        tree = Tree()
        root = tree.add_root(label="r")
        assert tree.root is root
        assert root.is_root
        assert root.is_leaf
        assert root.label == "r"
        assert len(tree) == 1

    def test_second_root_rejected(self):
        tree = Tree()
        tree.add_root()
        with pytest.raises(TreeError, match="already has a root"):
            tree.add_root()

    def test_add_child_links_both_ways(self):
        tree = Tree()
        root = tree.add_root()
        child = tree.add_child(root, label="a", length=1.5)
        assert child.parent is root
        assert child in root.children
        assert child.length == 1.5
        assert not root.is_leaf

    def test_auto_ids_are_unique_and_sequential(self):
        tree = Tree()
        root = tree.add_root()
        ids = [tree.add_child(root).node_id for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert root.node_id == 0

    def test_explicit_id_collision_rejected(self):
        tree = Tree()
        root = tree.add_root(node_id=7)
        with pytest.raises(TreeError, match="already exists"):
            tree.add_child(root, node_id=7)

    def test_explicit_ids_advance_auto_counter(self):
        tree = Tree()
        root = tree.add_root(node_id=10)
        child = tree.add_child(root)
        assert child.node_id == 11

    @pytest.mark.parametrize(
        "ids", [[0, 1, 2, 3], [10, 2, 30, 4], [3, 2, 1, 0], [0, 9, 1, 2]]
    )
    def test_from_preorder_equals_adding_row_by_row(self, ids):
        parents = [-1, 0, 1, 0]
        labels = [None, "a", "b", None]
        lengths = [None, 1.5, None, 0.25]
        built = Tree.from_preorder(parents, ids, labels, lengths, name="t")
        added = Tree(name="t")
        nodes = []
        for parent, node_id, label, length in zip(parents, ids, labels, lengths):
            if parent < 0:
                node = added.add_root(label=label, node_id=node_id)
                node.length = length
            else:
                node = added.add_child(
                    nodes[parent], label=label, length=length, node_id=node_id
                )
            nodes.append(node)
        assert built.name == "t"
        assert [
            (n.node_id, n.label, n.length, n.parent and n.parent.node_id)
            for n in built.preorder()
        ] == [
            (n.node_id, n.label, n.length, n.parent and n.parent.node_id)
            for n in added.preorder()
        ]
        assert built.add_child(built.root).node_id == added.add_child(
            added.root
        ).node_id
        assert len(Tree.from_preorder([], [], [], [])) == 0

    def test_from_preorder_rejects_a_second_root_or_a_repeated_id(self):
        with pytest.raises(TreeError, match="already has a root"):
            Tree.from_preorder([-1, -1], [0, 1], [None, None], [None, None])
        with pytest.raises(TreeError, match="repeated node id"):
            Tree.from_preorder([-1, 0], [4, 4], [None, None], [None, None])

    def test_foreign_node_rejected(self):
        tree_a, tree_b = Tree(), Tree()
        root_a = tree_a.add_root()
        tree_b.add_root()
        with pytest.raises(TreeError, match="does not belong"):
            tree_b.add_child(root_a)


class TestLookup:
    def test_node_by_id(self):
        tree = Tree()
        root = tree.add_root()
        child = tree.add_child(root, label="x")
        assert tree.node(child.node_id) is child

    def test_missing_id_raises(self):
        tree = Tree()
        tree.add_root()
        with pytest.raises(TreeError, match="no node with id"):
            tree.node(99)

    def test_contains(self):
        tree = Tree()
        root = tree.add_root()
        other = Tree()
        other_root = other.add_root()
        assert root in tree
        assert other_root not in tree
        assert "not a node" not in tree


class TestTraversal:
    def test_preorder_parents_first(self, small_tree):
        seen = set()
        for node in small_tree.preorder():
            if node.parent is not None:
                assert node.parent.node_id in seen
            seen.add(node.node_id)

    def test_postorder_children_first(self, small_tree):
        seen = set()
        for node in small_tree.postorder():
            for child in node.children:
                assert child.node_id in seen
            seen.add(node.node_id)

    def test_levelorder_by_depth(self, small_tree):
        depths = [small_tree.depth(node) for node in small_tree.levelorder()]
        assert depths == sorted(depths)

    def test_all_orders_visit_every_node(self, small_tree):
        n = len(small_tree)
        assert len(list(small_tree.preorder())) == n
        assert len(list(small_tree.postorder())) == n
        assert len(list(small_tree.levelorder())) == n

    def test_leaves_and_internal_partition(self, small_tree):
        leaves = set(n.node_id for n in small_tree.leaves())
        internal = set(n.node_id for n in small_tree.internal_nodes())
        assert leaves.isdisjoint(internal)
        assert len(leaves) + len(internal) == len(small_tree)

    def test_labeled_nodes(self, small_tree):
        for node in small_tree.labeled_nodes():
            assert node.label is not None


class TestDerived:
    def test_depth_and_height(self, caterpillar):
        assert caterpillar.height() == 9
        deepest = max(caterpillar.preorder(), key=caterpillar.depth)
        assert caterpillar.depth(deepest) == 9

    def test_height_of_empty_and_single(self):
        assert Tree().height() == -1
        tree = Tree()
        tree.add_root()
        assert tree.height() == 0

    def test_is_ancestor(self, small_tree):
        root = small_tree.root
        for node in small_tree.preorder():
            if node is not root:
                assert small_tree.is_ancestor(root, node)
                assert not small_tree.is_ancestor(node, root)
        assert not small_tree.is_ancestor(root, root)

    def test_lca_of_siblings_is_parent(self):
        tree = Tree()
        root = tree.add_root()
        a = tree.add_child(root)
        b = tree.add_child(root)
        assert tree.lca(a, b) is root

    def test_lca_with_ancestor(self):
        tree = Tree()
        root = tree.add_root()
        a = tree.add_child(root)
        b = tree.add_child(a)
        assert tree.lca(a, b) is a
        assert tree.lca(b, a) is a

    def test_labels_and_leaf_labels(self, small_tree):
        assert "a" in small_tree.leaf_labels()
        assert "x" in small_tree.labels()
        assert "x" not in small_tree.leaf_labels()  # x is internal


class TestMutation:
    def test_remove_subtree_counts(self):
        tree = Tree()
        root = tree.add_root()
        a = tree.add_child(root)
        tree.add_child(a)
        tree.add_child(a)
        removed = tree.remove_subtree(a)
        assert removed == 3
        assert len(tree) == 1
        assert root.is_leaf

    def test_remove_root_empties_tree(self):
        tree = Tree()
        root = tree.add_root()
        tree.add_child(root)
        tree.remove_subtree(root)
        assert tree.root is None
        assert len(tree) == 0

    def test_splice_out_merges_lengths(self):
        tree = Tree()
        root = tree.add_root()
        mid = tree.add_child(root, length=1.0)
        leaf = tree.add_child(mid, label="a", length=2.0)
        tree.splice_out(mid)
        assert leaf.parent is root
        assert leaf.length == 3.0
        assert len(tree) == 2

    def test_splice_out_root_rejected(self):
        tree = Tree()
        root = tree.add_root()
        with pytest.raises(TreeError, match="root"):
            tree.splice_out(root)

    def test_version_bumps_on_mutation(self):
        tree = Tree()
        before = tree.version
        root = tree.add_root()
        assert tree.version > before
        mid = tree.version
        tree.add_child(root)
        assert tree.version > mid


class TestCanonicalForm:
    def test_sibling_order_is_ignored(self):
        left = Tree()
        root = left.add_root()
        left.add_child(root, label="a")
        left.add_child(root, label="b")
        right = Tree()
        root_r = right.add_root()
        right.add_child(root_r, label="b")
        right.add_child(root_r, label="a")
        assert left.isomorphic_to(right)

    def test_labels_matter(self):
        left = Tree()
        left.add_root(label="a")
        right = Tree()
        right.add_root(label="b")
        assert not left.isomorphic_to(right)

    def test_structure_matters(self):
        from repro.trees.newick import parse_newick

        assert not parse_newick("((a,b),c);").isomorphic_to(
            parse_newick("(a,(b,c));")
        )

    def test_deep_tree_does_not_recurse(self):
        tree = Tree()
        node = tree.add_root()
        for _ in range(5000):
            node = tree.add_child(node)
        assert tree.canonical_form()  # must not hit the recursion limit

    def test_empty_tree_form(self):
        assert Tree().canonical_form() == ()


class TestTreeFromEdges:
    def test_basic(self):
        tree = tree_from_edges([(0, 1), (0, 2), (1, 3)], labels={3: "leaf"})
        assert len(tree) == 4
        assert tree.node(3).label == "leaf"
        assert tree.root.node_id == 0

    def test_two_parents_rejected(self):
        with pytest.raises(TreeError, match="two parents"):
            tree_from_edges([(0, 2), (1, 2)])

    def test_no_unique_root_rejected(self):
        with pytest.raises(TreeError, match="unique root"):
            tree_from_edges([(0, 1), (2, 3)])

    def test_explicit_root(self):
        tree = tree_from_edges([(5, 6)], root=5)
        assert tree.root.node_id == 5


class TestAsciiArt:
    def test_renders_all_nodes(self, small_tree):
        art = small_tree.ascii_art()
        assert art.count("\n") + 1 == len(small_tree)

    def test_empty(self):
        assert "empty" in Tree().ascii_art()


class TestLabelLookup:
    def test_find_unique(self):
        from repro.trees.newick import parse_newick

        tree = parse_newick("((a,b),c);")
        assert tree.find("b").label == "b"

    def test_find_missing(self):
        from repro.trees.newick import parse_newick

        tree = parse_newick("(a,b);")
        with pytest.raises(TreeError, match="no node labeled"):
            tree.find("z")

    def test_find_ambiguous(self):
        from repro.trees.newick import parse_newick

        tree = parse_newick("(a,a);")
        with pytest.raises(TreeError, match="ambiguous"):
            tree.find("a")

    def test_nodes_with_label(self):
        from repro.trees.newick import parse_newick

        tree = parse_newick("((a,b),(a,c));")
        assert len(tree.nodes_with_label("a")) == 2
        assert tree.nodes_with_label("zzz") == []
