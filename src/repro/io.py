"""Serialisation of mining results and crash-consistent file writes.

Mined cousin pair items and frequent patterns are plain records; this
module fixes their interchange formats so results can leave the
process — JSON for programmatic consumers, CSV for spreadsheets — and
round-trip back for later comparison (e.g. diffing two mining runs of
a growing TreeBASE snapshot).

It also owns :func:`atomic_write`, the single temp-file +
``os.replace`` implementation behind every on-disk artifact the
package persists (corpus manifests, pair-store shards, run history):
a reader either sees the previous complete file or the new complete
file, never a torn write.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from contextlib import contextmanager
from typing import IO, Any, Iterator, Sequence

from repro.core.cousins import CousinPairItem
from repro.core.multi_tree import FrequentCousinPair

__all__ = [
    "atomic_write",
    "items_to_json",
    "items_from_json",
    "items_to_csv",
    "items_from_csv",
    "patterns_to_json",
    "patterns_from_json",
]


# ----------------------------------------------------------------------
# Crash-consistent writes
# ----------------------------------------------------------------------
@contextmanager
def atomic_write(
    path: str | os.PathLike[str],
    mode: str = "w",
    encoding: str | None = None,
) -> Iterator[IO[Any]]:
    """Write ``path`` atomically: temp file in the same directory, then
    ``os.replace``.

    The temp file lives next to the target so the final rename stays on
    one filesystem (``os.replace`` is atomic only then).  If the body
    raises, the temp file is removed and the target is left untouched;
    readers therefore never observe a partially written file.

    Parameters
    ----------
    path:
        Final destination.  Its directory must already exist.
    mode:
        ``"w"`` (text, UTF-8 unless ``encoding`` overrides it) or
        ``"wb"`` (binary).
    encoding:
        Text encoding for ``mode="w"``; must be ``None`` for binary.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_write mode must be 'w' or 'wb', got {mode!r}")
    if mode == "wb" and encoding is not None:
        raise ValueError("binary atomic_write takes no encoding")
    if mode == "w" and encoding is None:
        encoding = "utf-8"
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    handle, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, mode, encoding=encoding) as stream:
            yield stream
        os.replace(temp_path, target)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:  # pragma: no cover - already renamed or gone
            pass
        raise


# ----------------------------------------------------------------------
# Cousin pair items
# ----------------------------------------------------------------------
def items_to_json(items: Sequence[CousinPairItem], indent: int | None = 2) -> str:
    """Serialise items to a JSON array of objects."""
    payload = [
        {
            "label_a": item.label_a,
            "label_b": item.label_b,
            "distance": item.distance,
            "occurrences": item.occurrences,
        }
        for item in items
    ]
    return json.dumps(payload, indent=indent)


def items_from_json(text: str) -> list[CousinPairItem]:
    """Parse items back from :func:`items_to_json` output.

    Raises
    ------
    ValueError
        On malformed JSON or records missing required fields.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"invalid JSON: {error}") from None
    if not isinstance(payload, list):
        raise ValueError("expected a JSON array of items")
    items = []
    for record in payload:
        try:
            items.append(
                CousinPairItem.make(
                    str(record["label_a"]),
                    str(record["label_b"]),
                    float(record["distance"]),
                    int(record["occurrences"]),
                )
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed item record {record!r}: {error}") from None
    return items


_CSV_HEADER = ["label_a", "label_b", "distance", "occurrences"]


def items_to_csv(items: Sequence[CousinPairItem]) -> str:
    """Serialise items to CSV with a header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_CSV_HEADER)
    for item in items:
        writer.writerow(
            [item.label_a, item.label_b, item.distance, item.occurrences]
        )
    return buffer.getvalue()


def items_from_csv(text: str) -> list[CousinPairItem]:
    """Parse items back from :func:`items_to_csv` output."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or rows[0] != _CSV_HEADER:
        raise ValueError(f"expected header {_CSV_HEADER}, got {rows[:1]}")
    items = []
    for row in rows[1:]:
        if len(row) != 4:
            raise ValueError(f"malformed CSV row {row!r}")
        items.append(
            CousinPairItem.make(row[0], row[1], float(row[2]), int(row[3]))
        )
    return items


# ----------------------------------------------------------------------
# Frequent patterns
# ----------------------------------------------------------------------
def patterns_to_json(
    patterns: Sequence[FrequentCousinPair], indent: int | None = 2
) -> str:
    """Serialise frequent patterns (support + posting list) to JSON."""
    payload = [
        {
            "label_a": pattern.label_a,
            "label_b": pattern.label_b,
            "distance": pattern.distance,
            "support": pattern.support,
            "tree_indexes": list(pattern.tree_indexes),
            "total_occurrences": pattern.total_occurrences,
        }
        for pattern in patterns
    ]
    return json.dumps(payload, indent=indent)


def patterns_from_json(text: str) -> list[FrequentCousinPair]:
    """Parse patterns back from :func:`patterns_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"invalid JSON: {error}") from None
    if not isinstance(payload, list):
        raise ValueError("expected a JSON array of patterns")
    patterns = []
    for record in payload:
        try:
            distance = record["distance"]
            patterns.append(
                FrequentCousinPair(
                    label_a=str(record["label_a"]),
                    label_b=str(record["label_b"]),
                    distance=float(distance) if distance is not None else None,
                    support=int(record["support"]),
                    tree_indexes=tuple(
                        int(i) for i in record["tree_indexes"]
                    ),
                    total_occurrences=int(record["total_occurrences"]),
                )
            )
        except (KeyError, TypeError) as error:
            raise ValueError(
                f"malformed pattern record {record!r}: {error}"
            ) from None
    return patterns
