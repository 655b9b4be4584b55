"""Rooted unordered labeled trees.

The paper (Section 2) defines a rooted unordered labeled tree of size
``n`` over a label set ``Sigma`` as a quadruple ``(V, N, L, E)``:

- ``V`` is the node set with a designated root;
- ``N`` assigns a *unique identification number* to every node;
- ``L`` assigns a *label* to some nodes (internal nodes of phylogenies
  are typically unlabeled, and several nodes may share a label);
- ``E`` is the parent-child relation.

:class:`Tree` implements exactly this structure.  Sibling order is kept
only as an iteration convenience; no algorithm in this package ever
depends on it, and :meth:`Tree.canonical_form` provides an
order-independent identity for unordered isomorphism checks.

Example
-------
>>> tree = Tree()
>>> root = tree.add_root()
>>> a = tree.add_child(root, label="a")
>>> b = tree.add_child(root, label="b")
>>> sorted(node.label for node in tree.leaves())
['a', 'b']
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator

from repro.errors import TreeError

__all__ = ["Node", "Tree"]


class Node:
    """A single node of a :class:`Tree`.

    Nodes are created through :meth:`Tree.add_root` and
    :meth:`Tree.add_child`; constructing them directly is not supported.

    Attributes
    ----------
    node_id:
        The unique identification number within the owning tree
        (the paper's ``N(v)``).
    label:
        The node label (the paper's ``L(v)``), or ``None`` for an
        unlabeled node.  Multiple nodes may share a label.
    length:
        Optional branch length of the edge to the parent (used by the
        phylogenetic substrates; ``None`` when absent).
    """

    __slots__ = ("_tree", "_id", "label", "length", "_parent", "_children")

    def __init__(
        self,
        tree: "Tree",
        node_id: int,
        label: str | None,
        length: float | None,
    ) -> None:
        self._tree = tree
        self._id = node_id
        self.label = label
        self.length = length
        self._parent: Node | None = None
        self._children: list[Node] = []

    @property
    def node_id(self) -> int:
        """The unique identification number of this node."""
        return self._id

    @property
    def tree(self) -> "Tree":
        """The tree that owns this node."""
        return self._tree

    @property
    def parent(self) -> "Node | None":
        """The parent node, or ``None`` for the root."""
        return self._parent

    @property
    def children(self) -> tuple["Node", ...]:
        """The children set of this node (the paper's ``children_set``).

        Returned as a tuple for safe iteration; the order carries no
        meaning for any algorithm in this package.
        """
        return tuple(self._children)

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no children."""
        return not self._children

    @property
    def is_root(self) -> bool:
        """Whether this node is the root of its tree."""
        return self._parent is None

    @property
    def is_labeled(self) -> bool:
        """Whether this node carries a label."""
        return self.label is not None

    @property
    def degree(self) -> int:
        """Number of children of this node."""
        return len(self._children)

    def ancestors(self) -> Iterator["Node"]:
        """Yield proper ancestors from the parent up to the root."""
        node = self._parent
        while node is not None:
            yield node
            node = node._parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.label if self.label is not None else "<unlabeled>"
        return f"Node(id={self._id}, label={label!r}, children={len(self._children)})"


class Tree:
    """A rooted unordered labeled tree.

    The tree starts empty; populate it with :meth:`add_root` followed by
    :meth:`add_child` calls, or use :func:`repro.trees.parse_newick`.

    Structural mutations bump an internal version counter, which lets
    derived indexes (see :class:`repro.trees.traversal.TreeIndex`) detect
    staleness cheaply.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._root: Node | None = None
        self._nodes: dict[int, Node] = {}
        self._next_id = 0
        self._version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_preorder(
        cls,
        parents: Iterable[int],
        node_ids: Iterable[int],
        labels: Iterable[str | None],
        lengths: Iterable[float | None],
        name: str | None = None,
    ) -> "Tree":
        """The tree of preorder rows: each row's parent row (``-1`` for
        the root, the first row), node id, label and branch length.

        The same tree as :meth:`add_root` and :meth:`add_child` calls
        row by row, built without their per-node checks.

        Raises
        ------
        TreeError
            If a second root or a repeated node id occurs.
        """
        tree = cls(name)
        nodes: list[Node] = []
        for parent, node_id, label, length in zip(parents, node_ids, labels, lengths):
            node = Node(tree, node_id, label, length)
            if parent >= 0:
                node._parent = above = nodes[parent]
                above._children.append(node)
            elif nodes:
                raise TreeError("tree already has a root")
            nodes.append(node)
        tree._nodes = {node._id: node for node in nodes}
        if len(tree._nodes) < len(nodes):
            raise TreeError("repeated node id")
        if nodes:
            tree._root = nodes[0]
            # What :meth:`add_child` leaves, ``max(next, id) + 1`` after
            # each node in turn: past every id by the nodes after it.
            tree._next_id = len(nodes) + max(
                0, max(map(operator.sub, tree._nodes, range(len(nodes))))
            )
        tree._version = len(nodes)
        return tree

    def add_root(
        self,
        label: str | None = None,
        node_id: int | None = None,
    ) -> Node:
        """Create the root node.

        Parameters
        ----------
        label:
            Optional label for the root.
        node_id:
            Explicit identification number; auto-assigned when omitted.

        Raises
        ------
        TreeError
            If the tree already has a root or ``node_id`` is taken.
        """
        if self._root is not None:
            raise TreeError("tree already has a root")
        node = self._new_node(label, None, node_id)
        self._root = node
        return node

    def add_child(
        self,
        parent: Node,
        label: str | None = None,
        length: float | None = None,
        node_id: int | None = None,
    ) -> Node:
        """Create a new node as a child of ``parent``.

        Parameters
        ----------
        parent:
            A node of *this* tree.
        label:
            Optional label for the new node.
        length:
            Optional branch length of the new edge.
        node_id:
            Explicit identification number; auto-assigned when omitted.

        Raises
        ------
        TreeError
            If ``parent`` belongs to another tree or ``node_id`` is taken.
        """
        self._check_owned(parent)
        node = self._new_node(label, length, node_id)
        node._parent = parent
        parent._children.append(node)
        return node

    def _new_node(
        self,
        label: str | None,
        length: float | None,
        node_id: int | None,
    ) -> Node:
        if node_id is None:
            node_id = self._next_id
        elif node_id in self._nodes:
            raise TreeError(f"node id {node_id} already exists")
        node = Node(self, node_id, label, length)
        self._nodes[node_id] = node
        self._next_id = max(self._next_id, node_id) + 1
        self._version += 1
        return node

    def _check_owned(self, node: Node) -> None:
        if node._tree is not self or self._nodes.get(node.node_id) is not node:
            raise TreeError("node does not belong to this tree")

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def remove_subtree(self, node: Node) -> int:
        """Remove ``node`` and all of its descendants.

        Returns the number of nodes removed.  Removing the root leaves
        an empty tree.
        """
        self._check_owned(node)
        removed = 0
        for descendant in self._subtree_postorder(node):
            del self._nodes[descendant.node_id]
            descendant._tree = None  # type: ignore[assignment]
            removed += 1
        if node._parent is not None:
            node._parent._children.remove(node)
        else:
            self._root = None
        node._parent = None
        self._version += 1
        return removed

    def splice_out(self, node: Node) -> None:
        """Remove a non-root ``node``, attaching its children to its parent.

        This is the standard "suppress a unary/redundant node" operation;
        branch lengths of the children are extended by the removed edge's
        length when both are present.

        Raises
        ------
        TreeError
            If ``node`` is the root.
        """
        self._check_owned(node)
        parent = node._parent
        if parent is None:
            raise TreeError("cannot splice out the root")
        index = parent._children.index(node)
        for child in node._children:
            child._parent = parent
            if child.length is not None and node.length is not None:
                child.length += node.length
        parent._children[index : index + 1] = node._children
        node._children = []
        node._parent = None
        del self._nodes[node.node_id]
        node._tree = None  # type: ignore[assignment]
        self._version += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def root(self) -> Node | None:
        """The root node, or ``None`` for an empty tree."""
        return self._root

    @property
    def version(self) -> int:
        """Monotone counter bumped on every structural mutation."""
        return self._version

    def node(self, node_id: int) -> Node:
        """Return the node with the given identification number.

        Raises
        ------
        TreeError
            If no node has this id.
        """
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TreeError(f"no node with id {node_id}") from None

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return self.preorder()

    def __contains__(self, node: object) -> bool:
        return (
            isinstance(node, Node)
            and node._tree is self
            and self._nodes.get(node.node_id) is node
        )

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def preorder(self) -> Iterator[Node]:
        """Yield nodes root-first (parents before children)."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def postorder(self) -> Iterator[Node]:
        """Yield nodes children-first (children before parents)."""
        if self._root is None:
            return
        yield from self._subtree_postorder(self._root)

    @staticmethod
    def _subtree_postorder(start: Node) -> Iterator[Node]:
        stack: list[tuple[Node, bool]] = [(start, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node._children))

    def levelorder(self) -> Iterator[Node]:
        """Yield nodes in breadth-first order from the root."""
        if self._root is None:
            return
        queue: list[Node] = [self._root]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            yield node
            queue.extend(node._children)

    def nodes(self) -> Iterator[Node]:
        """Yield all nodes (preorder)."""
        return self.preorder()

    def leaves(self) -> Iterator[Node]:
        """Yield all leaf nodes."""
        return (node for node in self.preorder() if node.is_leaf)

    def internal_nodes(self) -> Iterator[Node]:
        """Yield all non-leaf nodes."""
        return (node for node in self.preorder() if not node.is_leaf)

    def labeled_nodes(self) -> Iterator[Node]:
        """Yield all nodes carrying a label."""
        return (node for node in self.preorder() if node.label is not None)

    def nodes_with_label(self, label: str) -> list[Node]:
        """All nodes carrying ``label`` (several are allowed), preorder."""
        return [node for node in self.preorder() if node.label == label]

    def find(self, label: str) -> Node:
        """The unique node carrying ``label``.

        Raises
        ------
        TreeError
            If no node or more than one node has the label.
        """
        matches = self.nodes_with_label(label)
        if not matches:
            raise TreeError(f"no node labeled {label!r}")
        if len(matches) > 1:
            raise TreeError(
                f"label {label!r} is ambiguous ({len(matches)} nodes)"
            )
        return matches[0]

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Number of nodes (the paper's ``|T|``)."""
        return len(self._nodes)

    def leaf_labels(self) -> set[str]:
        """The set of labels found on leaves (the taxa of a phylogeny)."""
        return {node.label for node in self.leaves() if node.label is not None}

    def labels(self) -> set[str]:
        """The set of labels found anywhere in the tree."""
        return {node.label for node in self.preorder() if node.label is not None}

    def depth(self, node: Node) -> int:
        """Number of edges from the root down to ``node``."""
        self._check_owned(node)
        depth = 0
        current = node._parent
        while current is not None:
            depth += 1
            current = current._parent
        return depth

    def height(self) -> int:
        """Number of edges on the longest root-to-leaf path (-1 if empty)."""
        if self._root is None:
            return -1
        best = 0
        stack: list[tuple[Node, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > best:
                best = depth
            stack.extend((child, depth + 1) for child in node._children)
        return best

    def is_ancestor(self, ancestor: Node, descendant: Node) -> bool:
        """Whether ``ancestor`` lies strictly above ``descendant``."""
        self._check_owned(ancestor)
        self._check_owned(descendant)
        current = descendant._parent
        while current is not None:
            if current is ancestor:
                return True
            current = current._parent
        return False

    def lca(self, first: Node, second: Node) -> Node:
        """Least common ancestor of two nodes (possibly one of them)."""
        self._check_owned(first)
        self._check_owned(second)
        seen: set[int] = set()
        node: Node | None = first
        while node is not None:
            seen.add(node.node_id)
            node = node._parent
        node = second
        while node is not None:
            if node.node_id in seen:
                return node
            node = node._parent
        raise TreeError("nodes do not share an ancestor")  # pragma: no cover

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical_form(self) -> tuple:
        """An order-independent structural fingerprint of the tree.

        Two trees have equal canonical forms exactly when they are
        isomorphic as rooted *unordered* labeled trees (identification
        numbers and branch lengths are ignored; labels are compared).

        The form of each node is ``(label, sorted child forms)``, built
        bottom-up without recursion so arbitrarily deep trees are safe.
        """
        if self._root is None:
            return ()
        forms: dict[int, tuple] = {}
        for node in self.postorder():
            child_forms = sorted(forms.pop(child.node_id) for child in node._children)
            # Encode the label as a string that can never collide with a
            # real label ("\x00" prefix) so that sorting stays type-stable
            # even when some nodes are unlabeled (label None).
            label_key = "" if node.label is None else "\x00" + node.label
            forms[node.node_id] = (label_key, tuple(child_forms))
        return forms[self._root.node_id]

    def isomorphic_to(self, other: "Tree") -> bool:
        """Unordered labeled isomorphism check against another tree."""
        return self.canonical_form() == other.canonical_form()

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle as a flat parent-array instead of the node graph.

        The default pickling of the linked :class:`Node` structure
        recurses once per tree level and overflows the interpreter
        stack on deep trees; a flat ``(id, parent_id, label, length)``
        row per node (parents always before children) has no such
        limit.
        """
        rows: list[tuple[int, int | None, str | None, float | None]] = []
        for node in self.preorder():
            parent = node._parent
            rows.append(
                (
                    node.node_id,
                    parent.node_id if parent is not None else None,
                    node.label,
                    node.length,
                )
            )
        return {"name": self.name, "rows": rows, "next_id": self._next_id}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._root = None
        self._nodes = {}
        self._next_id = 0
        self._version = 0
        by_id: dict[int, Node] = {}
        for node_id, parent_id, label, length in state["rows"]:
            if parent_id is None:
                node = self.add_root(label=label, node_id=node_id)
                node.length = length
            else:
                node = self.add_child(
                    by_id[parent_id], label=label, length=length, node_id=node_id
                )
            by_id[node_id] = node
        self._next_id = state["next_id"]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def ascii_art(self, label_of: Callable[[Node], str] | None = None) -> str:
        """A small indented text rendering, useful in examples and logs."""
        if self._root is None:
            return "<empty tree>"
        if label_of is None:
            def label_of(node: Node) -> str:
                text = node.label if node.label is not None else "*"
                return f"{text} (#{node.node_id})"
        lines: list[str] = []
        stack: list[tuple[Node, int]] = [(self._root, 0)]
        while stack:
            node, indent = stack.pop()
            lines.append("  " * indent + label_of(node))
            stack.extend((child, indent + 1) for child in reversed(node._children))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = f" {self.name!r}" if self.name else ""
        return f"Tree(size={len(self._nodes)}{name})"


def tree_from_edges(
    edges: Iterable[tuple[int, int]],
    labels: dict[int, str] | None = None,
    root: int | None = None,
) -> Tree:
    """Build a tree from ``(parent_id, child_id)`` pairs.

    Parameters
    ----------
    edges:
        Parent-child id pairs.  Ids become the nodes' identification
        numbers.
    labels:
        Optional mapping from id to label.
    root:
        The root id; inferred as the unique parent that is never a child
        when omitted.

    Raises
    ------
    TreeError
        If the edges do not describe a single rooted tree.
    """
    labels = labels or {}
    edge_list = list(edges)
    children_of: dict[int, list[int]] = {}
    child_ids: set[int] = set()
    all_ids: set[int] = set()
    for parent_id, child_id in edge_list:
        children_of.setdefault(parent_id, []).append(child_id)
        if child_id in child_ids:
            raise TreeError(f"node {child_id} has two parents")
        child_ids.add(child_id)
        all_ids.add(parent_id)
        all_ids.add(child_id)
    if root is None:
        candidates = all_ids - child_ids
        if len(candidates) != 1:
            raise TreeError(
                f"cannot infer a unique root (candidates: {sorted(candidates)})"
            )
        (root,) = candidates
    tree = Tree()
    root_node = tree.add_root(label=labels.get(root), node_id=root)
    stack = [root_node]
    built = 1
    while stack:
        parent_node = stack.pop()
        for child_id in children_of.get(parent_node.node_id, ()):
            child = tree.add_child(
                parent_node, label=labels.get(child_id), node_id=child_id
            )
            stack.append(child)
            built += 1
    if built != len(all_ids) and edge_list:
        raise TreeError("edges contain nodes unreachable from the root")
    return tree
