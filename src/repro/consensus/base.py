"""Profile validation and the consensus dispatcher."""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import ConsensusError
from repro.trees.tree import Tree
from repro.trees.validate import is_leaf_labeled

__all__ = ["validate_profile", "consensus", "CONSENSUS_METHODS"]


def validate_profile(trees: Sequence[Tree]) -> set[str]:
    """Check a consensus input profile; return the common taxon set.

    A valid profile is a non-empty sequence of trees whose leaves are
    uniquely labeled and whose leaf-label sets all coincide.

    Raises
    ------
    ConsensusError
        Describing the first problem found.
    """
    if not trees:
        raise ConsensusError("consensus requires at least one tree")
    for position, tree in enumerate(trees):
        if tree.root is None:
            raise ConsensusError(f"tree {position} is empty")
        if not is_leaf_labeled(tree):
            raise ConsensusError(
                f"tree {position} has unlabeled or duplicate-labeled leaves"
            )
    taxa = trees[0].leaf_labels()
    for position, tree in enumerate(trees[1:], start=1):
        other = tree.leaf_labels()
        if other != taxa:
            raise ConsensusError(
                f"tree {position} has different taxa than tree 0: "
                f"{sorted(other ^ taxa)} not shared"
            )
    return taxa


def consensus(trees: Sequence[Tree], method: str = "majority", **kwargs) -> Tree:
    """Compute a consensus tree by method name.

    ``method`` is one of ``strict``, ``majority``, ``semistrict``,
    ``adams``, ``nelson`` (see :data:`CONSENSUS_METHODS`); extra
    keyword arguments are forwarded to the method (e.g. ``ratio`` for
    majority rule).
    """
    try:
        function = CONSENSUS_METHODS[method]
    except KeyError:
        raise ConsensusError(
            f"unknown consensus method {method!r}; "
            f"expected one of {sorted(CONSENSUS_METHODS)}"
        ) from None
    return function(trees, **kwargs)


class _MethodRegistry(Mapping[str, Callable[..., Tree]]):
    """Name -> method.  The names are fixed; a method's module is imported
    when the method is looked up.  So listing the names (the CLI's
    ``--method`` choices) imports no method, and the late import avoids a
    cycle with the method modules, which import this one."""

    def __init__(self, *names: str) -> None:
        self._names = names

    def __getitem__(self, key: str) -> Callable[..., Tree]:
        if key not in self._names:
            raise KeyError(key)
        module = import_module(f"repro.consensus.{key}")
        function: Callable[..., Tree] = getattr(module, f"{key}_consensus")
        return function

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


CONSENSUS_METHODS: Mapping[str, Callable[..., Tree]] = _MethodRegistry(
    "strict", "majority", "semistrict", "adams", "nelson"
)
"""Name -> implementation for the five methods of the paper."""
