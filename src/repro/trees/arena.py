"""Flat-array tree arenas with interned integer labels.

The arena is the mining path's only tree representation: the Newick
and NEXUS readers (:func:`repro.trees.newick.parse_arenas`,
:func:`repro.trees.nexus.read_arenas`) fill one :class:`ForestArena`
per file straight from text, and the kernel
(:mod:`repro.core.fastmine`) and the content addresses consume its
per-tree slices without attribute lookups, per-node objects, or string
hashing.  The pointer-based
:class:`~repro.trees.tree.Tree` is for editing and for the consumers
that walk nodes (consensus, parsimony, rooting, the apps);
:meth:`TreeArena.to_tree` builds one on demand.  This module provides:

- :class:`LabelTable` interns the distinct labels of a tree (or of a
  whole file: the readers build one per forest) into dense integer
  ids, assigned in **sorted label order** so that comparing two ids is
  the same as comparing the two label strings — the property that
  lets the kernel canonicalise an unordered label pair with one
  integer comparison.  The table is
  capped at ``2^21`` distinct labels because the kernel packs two ids
  plus a distance into one integer key; overflow raises
  :class:`~repro.errors.ArenaError` instead of silently corrupting
  packed keys.

- :class:`TreeArena` flattens one tree into parallel ``array`` buffers
  indexed by **preorder position** (so a node's parent always has a
  smaller index, and iterating indexes in reverse visits children
  before parents — the only traversal the mining sweep needs):

  ====================  ========  =======================================
  buffer                typecode  contents at index ``i``
  ====================  ========  =======================================
  ``parent``            ``i``     parent index (``-1`` for the root)
  ``first_child``       ``i``     first child index (``-1`` if leaf)
  ``next_sibling``      ``i``     next sibling index (``-1`` if last)
  ``label``             ``i``     interned label id (``-1`` unlabeled)
  ``node_ids``          ``q``     the paper's identification number
  ``lengths``           ``d``     branch length (``NaN`` when absent)
  ====================  ========  =======================================

- :class:`ForestArena` holds the trees of one file: the concatenated
  preorder columns, the tree offsets and one label table, and, as a
  list, a :class:`TreeArena` slice per tree sharing that table.  A
  slice equals :meth:`TreeArena.from_tree` of its tree after
  relabelling (:meth:`TreeArena.interned`).

Arenas pickle as their raw buffers: a few ``memcpy``-like array
copies instead of a linked node graph.  Because ids are assigned in
sorted order, interning is a pure function of the label *set* — two
processes (or two runs) flattening the same tree always agree on
every id, which is what makes interned mining results portable (a
pair store serves them across runs).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ArenaError
from repro.trees.packing import LABEL_BITS, MAX_LABELS
from repro.trees.tree import Tree

__all__ = [
    "LABEL_BITS",
    "MAX_LABELS",
    "ForestArena",
    "LabelTable",
    "TreeArena",
    "TreeLike",
    "as_arena",
    "find_label",
    "forest_arenas",
]


def find_label(labels: Sequence[str], label: str) -> int:
    """``label``'s id in the sorted, distinct ``labels``, or ``-1``.

    The id is the one a :class:`LabelTable` over ``labels`` assigns,
    found by binary search: a caller looking up a few labels against
    a large universe (a store commit) builds no id dict over it.
    """
    at = bisect_left(labels, label)
    return at if at < len(labels) and labels[at] == label else -1


class LabelTable:
    """Dense integer interning of string labels, in sorted order.

    Ids are assigned by sorting the distinct labels, so for any two
    interned labels ``a`` and ``b``::

        table.intern(a) < table.intern(b)  iff  a < b

    which lets the mining kernel order an unordered label pair by
    comparing ids.  Construction from the same label *set* is
    deterministic regardless of input order or process, so interned
    results can cross process boundaries and persisted stores safely.
    """

    __slots__ = ("labels", "_ids")

    max_labels: ClassVar[int] = MAX_LABELS
    """Capacity cap checked at construction.

    Defaults to :data:`repro.trees.packing.MAX_LABELS`; tests shrink it
    (monkeypatching the class attribute) to exercise the overflow path
    without allocating 2^21 labels.
    """

    def __init__(self, labels: Iterable[str]) -> None:
        unique = sorted(set(labels))
        cap = type(self).max_labels
        if len(unique) > cap:
            raise ArenaError(
                f"label table overflow: {len(unique)} distinct labels "
                f"exceed the packed-key capacity of {cap} "
                f"(2^{LABEL_BITS}); partition the forest by label "
                "universe before mining"
            )
        self.labels: tuple[str, ...] = tuple(unique)
        self._ids: dict[str, int] = {
            label: index for index, label in enumerate(self.labels)
        }

    @classmethod
    def from_forest(cls, trees: Sequence["TreeLike"]) -> "LabelTable":
        """One shared table covering every label of every tree."""

        def labels() -> Iterator[str]:
            for tree in trees:
                if isinstance(tree, TreeArena):
                    yield from tree.labels_used()
                    continue
                for node in tree.preorder():
                    if node.label is not None:
                        yield node.label

        return cls(labels())

    def intern(self, label: str) -> int:
        """The id of ``label``; raises :class:`ArenaError` if absent."""
        try:
            return self._ids[label]
        except KeyError:
            raise self.missing(label) from None

    def intern_many(self, labels: Sequence[str]) -> np.ndarray:
        """The ``int32`` ids of ``labels``, which the table must cover."""
        return np.fromiter(
            map(self._ids.__getitem__, labels), np.int32, len(labels)
        )

    def find_many(self, labels: Sequence[str]) -> np.ndarray:
        """The ``int32`` ids of ``labels``, ``-1`` for each one absent."""
        get = self._ids.get
        return np.fromiter((get(label, -1) for label in labels), np.int32, len(labels))

    def missing(self, label: str) -> ArenaError:
        """The error describing a lookup of an uncovered ``label``.

        Returned (not raised) so hot loops that already hold the
        ``_ids`` dict can report a miss without re-entering
        :meth:`intern` — see rule ``RPL003`` of :mod:`repro.lint`.
        """
        return ArenaError(
            f"label {label!r} is not in this table "
            f"({len(self.labels)} labels); build the table from "
            "the same forest as the trees being flattened"
        )

    def label_of(self, index: int) -> str:
        """The label string carrying id ``index``."""
        return self.labels[index]

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelTable):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __reduce__(self):
        # Rebuild from the label tuple: sorted-order assignment makes
        # this exactly reproduce every id on the other side.
        return (LabelTable, (self.labels,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabelTable({len(self.labels)} labels)"


class TreeArena:
    """One tree flattened into preorder-indexed array buffers.

    The readers cut arenas out of a :class:`ForestArena`, whose
    columns they view as memoryviews; :meth:`from_tree` flattens a
    pointer tree into ``array`` buffers.  The constructor takes the raw
    buffers and is mostly useful to deserialisers and tests.
    """

    __slots__ = (
        "parent",
        "first_child",
        "next_sibling",
        "label",
        "node_ids",
        "lengths",
        "table",
        "name",
    )

    def __init__(
        self,
        parent: array,
        first_child: array,
        next_sibling: array,
        label: array,
        node_ids: array,
        lengths: array,
        table: LabelTable,
        name: str | None = None,
    ) -> None:
        self.parent = parent
        self.first_child = first_child
        self.next_sibling = next_sibling
        self.label = label
        self.node_ids = node_ids
        self.lengths = lengths
        self.table = table
        self.name = name

    @classmethod
    def from_tree(cls, tree: Tree, table: LabelTable | None = None) -> "TreeArena":
        """Flatten ``tree``, interning labels through ``table``.

        Without an explicit ``table`` a per-tree one is built — the
        form required for content-addressed caching, where the interned
        result must depend on this tree's content alone.  Pass a
        :meth:`LabelTable.from_forest` table to share ids across a
        forest.
        """
        if table is None:
            table = LabelTable(
                node.label for node in tree.preorder() if node.label is not None
            )
        parent = array("i")
        label = array("i")
        node_ids = array("q")
        lengths = array("d")
        root = tree.root
        if root is not None:
            # hot path: touch Node slots directly, skip property wrappers
            ids = table._ids
            nan = float("nan")
            parent_append = parent.append
            label_append = label.append
            node_ids_append = node_ids.append
            lengths_append = lengths.append
            stack_pop = (stack := [(root, -1)]).pop
            stack_append = stack.append
            index = 0
            while stack:
                node, parent_index = stack_pop()
                parent_append(parent_index)
                text = node.label
                if text is None:
                    label_append(-1)
                else:
                    try:
                        label_append(ids[text])
                    except KeyError:
                        raise table.missing(text) from None
                node_ids_append(node._id)
                length = node.length
                lengths_append(nan if length is None else length)
                for child in reversed(node._children):
                    stack_append((child, index))
                index += 1
        # One pass per tree, as small trees (a commit's few) cost less
        # this way than in the forest reader's array passes.
        count = len(parent)
        first_child = array("i", [-1]) * count
        next_sibling = array("i", [-1]) * count
        for index in range(count - 1, 0, -1):
            parent_index = parent[index]
            next_sibling[index] = first_child[parent_index]
            first_child[parent_index] = index
        return cls(
            parent,
            first_child,
            next_sibling,
            label,
            node_ids,
            lengths,
            table,
            tree.name,
        )

    def labels_used(self) -> list[str]:
        """The distinct labels on this tree's nodes, in sorted order."""
        labels = self.table.labels
        return [labels[index] for index in self._used_ids()]

    def _used_ids(self) -> list[int]:
        return [index for index in sorted(set(self.label)) if index >= 0]

    def interned(self, table: LabelTable | None = None) -> "TreeArena":
        """This arena with its label column interned through ``table``.

        ``None`` asks for the per-tree table (this tree's labels only)
        that content addresses are computed against.
        Returns ``self`` when the arena already carries the requested
        table; otherwise a new arena sharing the structure buffers.
        Raises :class:`ArenaError` if ``table`` misses a used label.
        """
        labels = self.table.labels
        used = self._used_ids()
        if table is None:
            if len(used) == len(labels):
                return self
            table = LabelTable(labels[index] for index in used)
        elif table is self.table or table == self.table:
            return self
        ids = table._ids
        remap = [-1] * (len(labels) + 1)  # slot -1 keeps unlabeled at -1
        for index in used:
            try:
                remap[index] = ids[labels[index]]
            except KeyError:
                raise table.missing(labels[index]) from None
        return TreeArena(
            self.parent,
            self.first_child,
            self.next_sibling,
            array("i", [remap[index] for index in self.label]),
            self.node_ids,
            self.lengths,
            table,
            self.name,
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.parent)

    def size(self) -> int:
        """Number of nodes (the paper's ``|T|``)."""
        return len(self.parent)

    def children(self, index: int) -> Iterator[int]:
        """Child indexes of node ``index``, in preorder."""
        child = self.first_child[index]
        while child != -1:
            yield child
            child = self.next_sibling[child]

    def label_text(self, index: int) -> str | None:
        """The label string of node ``index`` (``None`` if unlabeled)."""
        interned = self.label[index]
        return None if interned < 0 else self.table.labels[interned]

    def fingerprint(self) -> str:
        """The canonical-form string of the flattened tree.

        Equal iff the trees are isomorphic as rooted, unordered,
        labeled trees (the equivalence of
        :meth:`~repro.trees.tree.Tree.canonical_form`; ids and branch
        lengths ignored).  Built bottom-up as a flat string, so it
        never recurses, and labels are length-prefixed, which keeps the
        encoding injective whatever characters a label contains.  This
        is the content address behind
        :func:`repro.engine.cache.arena_cache_key`.
        """
        count = len(self.parent)
        if count == 0:
            return "empty"
        labels = self.table.labels
        label = self.label
        first_child = self.first_child
        next_sibling = self.next_sibling
        forms: list[str | None] = [None] * count
        for index in range(count - 1, -1, -1):
            child_forms = []
            child = first_child[index]
            while child != -1:
                child_forms.append(forms[child])
                forms[child] = None
                child = next_sibling[child]
            child_forms.sort()
            interned = label[index]
            if interned < 0:
                label_key = "-"
            else:
                text = labels[interned]
                label_key = f"{len(text)}:{text}"
            forms[index] = "(" + label_key + "".join(child_forms) + ")"
        return forms[0]

    def to_tree(self) -> Tree:
        """Rebuild a pointer :class:`Tree` (ids and lengths preserved)."""
        labels = self.table.labels
        return Tree.from_preorder(
            self.parent.tolist(),
            self.node_ids.tolist(),
            [None if index < 0 else labels[index] for index in self.label.tolist()],
            # NaN -> None
            [None if length != length else length for length in self.lengths.tolist()],
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Identity / pickling
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeArena):
            return NotImplemented
        if self.table != other.table or self.name != other.name:
            return False
        for field in ("parent", "first_child", "next_sibling", "label",
                      "node_ids"):
            if getattr(self, field) != getattr(other, field):
                return False
        # NaN != NaN, so compare lengths bytewise.
        return self.lengths.tobytes() == other.lengths.tobytes()

    def __getstate__(self) -> tuple:
        # A forest slice's columns are memoryviews: pickle them as arrays.
        return (
            *(
                array(column.format, column.tobytes())
                if isinstance(column, memoryview)
                else column
                for column in (
                    self.parent,
                    self.first_child,
                    self.next_sibling,
                    self.label,
                    self.node_ids,
                    self.lengths,
                )
            ),
            self.table,
            self.name,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.parent,
            self.first_child,
            self.next_sibling,
            self.label,
            self.node_ids,
            self.lengths,
            self.table,
            self.name,
        ) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = f" {self.name!r}" if self.name else ""
        return (
            f"TreeArena(size={len(self.parent)}, "
            f"labels={len(self.table)}{name})"
        )


class ForestArena(list[TreeArena]):
    """The trees of one file, read into one set of columns.

    The preorder columns of every tree are concatenated, tree after
    tree, as numpy arrays: ``parent``, ``first_child`` and
    ``next_sibling`` (tree-local indexes, ``-1`` for none), ``label``
    (ids into the one sorted ``table``), ``node_ids`` and ``lengths``;
    tree ``i`` owns rows ``offsets[i]:offsets[i + 1]``.  The list items
    are the per-tree :class:`TreeArena` slices of those columns
    (memoryviews, no copy), named by ``names`` and all sharing
    ``table``, so forest label ids pass from the reader to the
    aggregation unchanged.
    """

    __slots__ = (
        "table", "offsets", "parent", "first_child", "next_sibling",
        "label", "node_ids", "lengths",
    )

    def __init__(
        self,
        table: LabelTable,
        names: Sequence[str | None],
        *columns: np.ndarray,
    ) -> None:
        (self.parent, self.first_child, self.next_sibling, self.label,
         self.node_ids, self.lengths) = columns
        self.table = table
        self.offsets = np.append((self.parent < 0).nonzero()[0], self.parent.size)
        views = [memoryview(column) for column in columns]
        bounds = self.offsets.tolist()
        super().__init__(
            TreeArena(*[view[start:stop] for view in views], table, name)
            for start, stop, name in zip(bounds, bounds[1:], names)
        )


TreeLike = Tree | TreeArena
"""What the mining entry points accept: a pointer tree or an arena."""


def as_arena(tree: TreeLike) -> TreeArena:
    """``tree`` as an arena: a pointer tree is flattened against its
    own label table; an arena, forest slices included, passes through
    as is."""
    if isinstance(tree, TreeArena):
        return tree
    return TreeArena.from_tree(tree)


def forest_arenas(
    trees: Sequence[TreeLike], table: LabelTable | None = None
) -> tuple[LabelTable, list[TreeArena]]:
    """Flatten a forest against one shared label table.

    Arenas that all carry one table object (the slices of one
    :class:`ForestArena`) pass through with that table.  Otherwise the
    whole forest's label universe is interned once (the per-forest
    interning pass of the mining kernel) and the table is returned
    with one arena per tree, aligned with the input order; arenas
    already carrying ``table`` pass through, others have their label
    column re-interned (:meth:`TreeArena.interned`).
    """
    if table is None:
        tables = {id(tree.table): tree.table for tree in trees
                  if isinstance(tree, TreeArena)}
        if len(tables) == 1 and all(isinstance(tree, TreeArena) for tree in trees):
            (table,) = tables.values()
            return table, list(trees)
        table = LabelTable.from_forest(trees)
    return table, [
        tree.interned(table)
        if isinstance(tree, TreeArena)
        else TreeArena.from_tree(tree, table)
        for tree in trees
    ]
