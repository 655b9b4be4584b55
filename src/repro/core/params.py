"""Mining parameters (Table 2 of the paper).

The paper's experiments run with three user-facing knobs:

========== =============================================== =======
name       meaning                                         default
========== =============================================== =======
minoccur   minimum occurrence count of an interesting      1
           cousin pair inside one tree
maxdist    maximum cousin distance of an interesting pair  1.5
minsup     minimum number of trees in the database that    2
           contain an interesting cousin pair
========== =============================================== =======

A fourth knob, ``max_generation_gap``, generalises the paper's
heuristic cut-off of 1 on the generation difference between the two
cousins (Section 2 notes the cut-off "could be much greater" or absent;
a reviewer suggested separate vertical/horizontal limits).  The default
of 1 reproduces the paper exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import MiningParameterError

__all__ = [
    "DistanceMode",
    "MiningParams",
    "DEFAULT_PARAMS",
    "validate_maxdist",
    "validate_minoccur",
    "validate_minsup",
    "validate_mode",
]


class DistanceMode(str, enum.Enum):
    """Which item slots participate in the distance (Section 5.3).

    Defined here, next to the other knobs, so that the packed distance
    paths can name a mode without importing the reference
    implementation in :mod:`repro.core.distance`, which re-exports it.
    """

    PLAIN = "plain"
    """Neither cousin distance nor occurrence number: label pairs only."""

    DIST = "dist"
    """Cousin distance kept, occurrence numbers ignored."""

    OCCUR = "occur"
    """Occurrence numbers kept (summed over distances), distances ignored."""

    DIST_OCCUR = "dist_occur"
    """Both kept: the full cousin pair items."""


def _is_half_step(value: float) -> bool:
    return math.isfinite(value) and float(2 * value).is_integer()


def validate_maxdist(maxdist: float) -> float:
    """Check one raw ``maxdist`` knob and return it.

    The single validation point for functions that take a bare
    ``maxdist`` without building a full :class:`MiningParams`
    (enforced by lint rule ``RPL004``): the distance budget must be a
    non-negative multiple of 0.5, because cousin distances advance in
    half steps.
    """
    if maxdist < 0 or not _is_half_step(maxdist):
        raise MiningParameterError(
            f"maxdist must be a non-negative multiple of 0.5, "
            f"got {maxdist!r}"
        )
    return maxdist


def validate_minoccur(minoccur: int) -> int:
    """Check one raw ``minoccur`` knob (>= 1) and return it."""
    if minoccur < 1:
        raise MiningParameterError(
            f"minoccur must be >= 1, got {minoccur!r}"
        )
    return minoccur


def validate_minsup(minsup: int) -> int:
    """Check one raw ``minsup`` knob (>= 1) and return it."""
    if minsup < 1:
        raise MiningParameterError(
            f"minsup must be >= 1, got {minsup!r}"
        )
    return minsup


def validate_mode(mode: DistanceMode | str) -> DistanceMode:
    """Normalise one raw distance ``mode`` knob to a ``DistanceMode``.

    Accepts a :class:`DistanceMode` member or its
    string value (``"plain"``, ``"dist"``, ``"occur"``,
    ``"dist_occur"``) and returns the member; anything else raises
    :class:`MiningParameterError`.  This is the single validation
    point for the Section 5.3 distance variant knob, the same pattern
    rule ``RPL004`` enforces for the mining knobs.  Usable directly as
    an ``argparse`` ``type=`` callable (the error subclasses
    ``ValueError``, so bad values become a clean usage message).
    """
    if isinstance(mode, DistanceMode):
        return mode
    try:
        return DistanceMode(mode)
    except ValueError:
        values = ", ".join(member.value for member in DistanceMode)
        raise MiningParameterError(
            f"mode must be one of {values}, got {mode!r}"
        ) from None


@dataclass(frozen=True)
class MiningParams:
    """Validated bundle of mining parameters.

    Attributes
    ----------
    maxdist:
        Maximum cousin distance of an interesting pair.  Must be a
        non-negative multiple of 0.5 (distances advance in half steps:
        siblings 0, aunt-niece 0.5, first cousins 1, ...).
    minoccur:
        Minimum within-tree occurrence count (>= 1).
    minsup:
        Minimum support, i.e. number of trees containing the pair
        (>= 1); only used by multi-tree mining.
    max_generation_gap:
        Maximum height difference of the two cousins under their least
        common ancestor.  1 reproduces the paper (sibling through
        once-removed relationships); larger values admit twice-removed
        and beyond.  This is the *vertical* limit of the reviewer
        suggestion recorded in Section 2.
    max_height:
        Optional *horizontal* limit: the shallower cousin may hang at
        most this many levels below the LCA.  ``None`` (the default,
        and the paper's behaviour) leaves ``maxdist`` as the only
        horizontal constraint.
    """

    maxdist: float = 1.5
    minoccur: int = 1
    minsup: int = 2
    max_generation_gap: int = 1
    max_height: int | None = None

    def __post_init__(self) -> None:
        validate_maxdist(self.maxdist)
        validate_minoccur(self.minoccur)
        validate_minsup(self.minsup)
        if self.max_generation_gap < 0:
            raise MiningParameterError(
                f"max_generation_gap must be >= 0, "
                f"got {self.max_generation_gap!r}"
            )
        if self.max_height is not None and self.max_height < 1:
            raise MiningParameterError(
                f"max_height must be >= 1 or None, got {self.max_height!r}"
            )

    @property
    def max_level(self) -> int:
        """Deepest height below an LCA that can still yield a pair.

        A pair at heights ``(h1, h2)`` with gap ``g = |h1 - h2|`` has
        distance ``min(h1, h2) - 1 + g / 2``; with distance bounded by
        ``maxdist`` and gap by ``max_generation_gap``, the deeper node
        sits at most ``floor(maxdist) + 1 + max_generation_gap`` levels
        below the LCA when the gap is spent going deeper -- but the
        distance penalty of the gap caps this at the tighter bound
        computed here.
        """
        best = 0
        for gap in range(self.max_generation_gap + 1):
            # min height h satisfies h - 1 + gap / 2 <= maxdist.
            min_height = int(math.floor(self.maxdist - gap / 2.0)) + 1
            if self.max_height is not None:
                min_height = min(min_height, self.max_height)
            if min_height >= 1:
                best = max(best, min_height + gap)
        return best

    def admits_heights(self, height_a: int, height_b: int) -> bool:
        """Whether a height pair under an LCA passes every limit.

        Checks the distance budget (``maxdist``), the vertical limit
        (``max_generation_gap``) and — when set — the horizontal limit
        ``max_height`` on the shallower cousin's height (the reviewer
        suggestion recorded in Section 2 of the paper: independent
        vertical and horizontal caps).
        """
        if height_a < 1 or height_b < 1:
            return False
        gap = abs(height_a - height_b)
        if gap > self.max_generation_gap:
            return False
        shallow = min(height_a, height_b)
        if self.max_height is not None and shallow > self.max_height:
            return False
        return shallow - 1 + gap / 2.0 <= self.maxdist


DEFAULT_PARAMS = MiningParams()
"""The paper's defaults: maxdist 1.5, minoccur 1, minsup 2 (Table 2)."""
