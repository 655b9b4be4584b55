"""The packed cousin-pair key layout, in one place.

The mining kernel (:mod:`repro.core.fastmine`) accumulates occurrence
counts in plain dicts keyed by a single non-negative integer that
encodes an unordered label pair plus a cousin distance::

    key = (half_steps << DIST_SHIFT) | (label_a << LABEL_BITS) | label_b

with ``label_a <= label_b`` (interned ids, assigned in sorted label
order — see :class:`repro.trees.arena.LabelTable`) and
``half_steps = int(2 * distance)`` so the low bit of the distance
field is the "half" bit distinguishing e.g. first cousins from
first-cousins-once-removed.

Every module that touches this layout — the arena's label-table cap,
the kernel's encode loops, the content-address scheme tag — must
import these constants rather than re-deriving the widths, so the
layout can only ever change in one place (and the address scheme
tag changes with it).  The repo's own static analyzer enforces this:
rule ``RPL002`` of :mod:`repro.lint` flags bit-width/shift/mask
literals anywhere else under ``src/repro``.

>>> unpack_key(pack_key(3, 1, 2))
(3, 1, 2)
"""

from __future__ import annotations

__all__ = [
    "LABEL_BITS",
    "HALF_STEP_BITS",
    "LABEL_MASK",
    "PAIR_MASK",
    "DIST_SHIFT",
    "MAX_LABELS",
    "MAX_HALF_STEPS",
    "PACKED_KEY_SCHEME",
    "pack_key",
    "unpack_key",
]

LABEL_BITS = 21
"""Bits reserved for one interned label id inside a packed pair key."""

HALF_STEP_BITS = 21
"""Bits reserved for the half-step distance field of a packed key."""

LABEL_MASK = (1 << LABEL_BITS) - 1
"""Mask isolating one label-id field of a packed key."""

PAIR_MASK = (LABEL_MASK << LABEL_BITS) | LABEL_MASK
"""Mask isolating both label-id fields of a packed key.

``key & PAIR_MASK`` drops the distance field, collapsing a full
``(labels, distance)`` key onto its unordered label pair — the
identity the distance-vector kernel's ``plain``/``occur`` projections
compare (:mod:`repro.core.distvec`).
"""

DIST_SHIFT = 2 * LABEL_BITS
"""Left shift that places ``half_steps`` above both label fields."""

MAX_LABELS = 1 << LABEL_BITS
"""Most distinct labels one label table can address (2^21)."""

MAX_HALF_STEPS = (1 << HALF_STEP_BITS) - 1
"""Largest encodable distance, in half steps."""

PACKED_KEY_SCHEME = "cpi-packed/v2"
"""Version tag of the packed layout, mixed into every content address.

Bump this whenever the key layout (or the semantics of a persisted
:class:`repro.core.fastmine.PackedCounts` payload) changes, so stale
stored rows become unreachable instead of being decoded under the
wrong layout.
"""

# Import-time overflow guard (a plain raise so ``python -O`` cannot
# strip it): both label fields plus the distance field must fit a
# 63-bit non-negative int, or packed keys would silently collide.
if LABEL_BITS * 2 + HALF_STEP_BITS > 63:
    raise AssertionError(
        f"packed key layout overflows 63 bits: "
        f"2 * {LABEL_BITS} (labels) + {HALF_STEP_BITS} (distance) "
        f"= {LABEL_BITS * 2 + HALF_STEP_BITS}"
    )


def pack_key(half_steps: int, label_a: int, label_b: int) -> int:
    """Encode ``(half_steps, label_a, label_b)`` into one packed key.

    ``label_a`` and ``label_b`` are interned ids with
    ``label_a <= label_b``; ``half_steps`` is ``int(2 * distance)``.
    This is the readable form of the encode the kernel inlines in its
    hot loops; use it in tests and diagnostics, not per-pair code.
    """
    if not 0 <= label_a <= label_b <= LABEL_MASK:
        raise ValueError(
            f"label ids must satisfy 0 <= a <= b <= {LABEL_MASK}, "
            f"got ({label_a}, {label_b})"
        )
    if not 0 <= half_steps <= MAX_HALF_STEPS:
        raise ValueError(
            f"half_steps must be in [0, {MAX_HALF_STEPS}], got {half_steps}"
        )
    return (half_steps << DIST_SHIFT) | (label_a << LABEL_BITS) | label_b


def unpack_key(key: int) -> tuple[int, int, int]:
    """Decode a packed key into ``(half_steps, label_a, label_b)``."""
    return (
        key >> DIST_SHIFT,
        (key >> LABEL_BITS) & LABEL_MASK,
        key & LABEL_MASK,
    )
