"""Consensus tree methods (Section 5.2 of the paper).

The paper evaluates five classical consensus methods with its
cousin-pair similarity score:

- **strict** [Day 1985] — clusters present in *every* input tree;
- **majority** [Margush & McMorris 1981] — clusters present in more
  than half of the input trees;
- **semi-strict** (combinable components) [Bremer 1990] — clusters
  present in at least one tree and compatible with all trees;
- **Adams** [Adams 1972] — recursive product of root partitions;
- **Nelson** [Nelson 1979] — the maximum-replication clique of
  mutually compatible clusters.

All methods consume a *profile*: a non-empty sequence of rooted trees
over one common taxon set, with uniquely labeled leaves.  Use
:func:`consensus` to dispatch by name.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.consensus.base import consensus, CONSENSUS_METHODS
    from repro.consensus.strict import strict_consensus
    from repro.consensus.majority import majority_consensus
    from repro.consensus.semistrict import semistrict_consensus
    from repro.consensus.adams import adams_consensus
    from repro.consensus.nelson import nelson_consensus

__all__ = [
    "consensus",
    "CONSENSUS_METHODS",
    "strict_consensus",
    "majority_consensus",
    "semistrict_consensus",
    "adams_consensus",
    "nelson_consensus",
]

# Name -> defining submodule.  Each submodule is imported the first time
# one of its names is looked up (PEP 562), so importing this package
# loads none of them.
_EXPORTS = {
    "consensus": "base",
    "CONSENSUS_METHODS": "base",
    "strict_consensus": "strict",
    "majority_consensus": "majority",
    "semistrict_consensus": "semistrict",
    "adams_consensus": "adams",
    "nelson_consensus": "nelson",
}


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
