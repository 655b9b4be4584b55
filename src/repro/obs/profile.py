"""Span-tree profiles: rollups, critical path, folded-stack export.

A ``--trace`` run records *where the spans were*; this module answers
*where the time went*.  :func:`build_profile` aggregates a finished
span forest into:

- a **per-span-name rollup** — call count, cumulative seconds and
  *self* seconds (cumulative minus the direct children), the table
  ``repro-mine profile`` and the ``--profile`` flag print;
- the **critical path** — the heaviest root followed greedily down
  its heaviest child at every level, always a real root-to-leaf chain
  of the recorded tree whose steps carry their span ids (equal
  durations break to the lowest span id, so the path is
  deterministic);
- the **folded-stack export** — ``root;child;leaf <micros>`` lines in
  the collapse format standard flamegraph tooling consumes
  (``flamegraph.pl out.folded > out.svg``, speedscope, etc.).

Self time is clamped at zero (timer jitter can make directly nested
spans sum to a hair over their parent), so folded counts are always
non-negative; on a well-formed trace the self times of a root's
subtree sum back to the root's wall-clock, which is the reconciliation
``tests/obs/test_profile.py`` enforces against the store benchmark's
phase timings.

Everything here consumes span records that already exist — profiling
adds no clock reads of its own, so ``--profile`` costs exactly what
tracing costs (inside the <5% gate of ``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import TraceError
from repro.obs.trace import SpanRecord

__all__ = [
    "PathStep",
    "Profile",
    "ProfileRow",
    "build_profile",
    "folded_lines",
    "profile_trace",
    "read_trace_spans",
    "render_profile",
    "write_folded",
]


@dataclass(frozen=True)
class ProfileRow:
    """One span name's rollup across every occurrence in the trace."""

    name: str
    calls: int
    cum_seconds: float
    self_seconds: float


@dataclass(frozen=True)
class PathStep:
    """One span on the critical path (root first).

    ``span_id`` names the recorded span the step is, so the path maps
    back to the trace even when same-name spans have near-equal
    durations.
    """

    span_id: int
    name: str
    seconds: float
    self_seconds: float


@dataclass(frozen=True)
class Profile:
    """The aggregated view of one trace's span forest."""

    rows: tuple[ProfileRow, ...]
    roots: tuple[tuple[str, float], ...]
    critical_path: tuple[PathStep, ...]
    folded: Mapping[str, float]
    span_count: int
    total_seconds: float

    def row(self, name: str) -> ProfileRow | None:
        """The rollup row for ``name`` (or ``None``)."""
        for row in self.rows:
            if row.name == name:
                return row
        return None


def read_trace_spans(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """The span line objects of a ``--trace`` JSONL file, in file order.

    Non-span lines (``meta``, ``snapshot``) are skipped; unparsable
    lines and span records missing required fields raise
    :class:`~repro.errors.TraceError` — a profile over silently dropped
    spans would mis-assign time.
    """
    spans: list[dict[str, Any]] = []
    with open(os.fspath(path), encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError as error:
                raise TraceError(
                    f"{path}:{number}: not a JSON line ({error})"
                ) from None
            if not isinstance(line, dict) or "type" not in line:
                raise TraceError(
                    f"{path}:{number}: not a trace record (no 'type')"
                )
            if line["type"] != "span":
                continue
            missing = [
                key for key in ("id", "name", "seconds") if key not in line
            ]
            if missing:
                raise TraceError(
                    f"{path}:{number}: span record missing {missing!r}"
                )
            spans.append(line)
    return spans


def _normalise(span: Mapping[str, Any] | SpanRecord) -> dict[str, Any]:
    if isinstance(span, SpanRecord):
        return {
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "seconds": span.seconds,
        }
    return dict(span)


def build_profile(
    spans: Sequence[Mapping[str, Any] | SpanRecord],
) -> Profile:
    """Aggregate finished spans (trace lines or live ``SpanRecord``\\ s).

    Spans whose parent id is absent from the input count as roots, so a
    profile over a filtered subset of a trace still adds up within that
    subset.
    """
    records = [_normalise(span) for span in spans]
    by_id: dict[int, dict[str, Any]] = {}
    order: list[int] = []
    for record in records:
        sid = int(record["id"])
        by_id[sid] = record
        order.append(sid)

    children: dict[int, list[int]] = {sid: [] for sid in order}
    child_seconds: dict[int, float] = {sid: 0.0 for sid in order}
    root_ids: list[int] = []
    for sid in order:
        parent = by_id[sid].get("parent")
        if parent is not None:
            parent = int(parent)
        if parent is None or parent not in by_id:
            root_ids.append(sid)
        else:
            children[parent].append(sid)
            child_seconds[parent] += float(by_id[sid]["seconds"])

    self_seconds = {
        sid: max(0.0, float(by_id[sid]["seconds"]) - child_seconds[sid])
        for sid in order
    }

    # Per-name rollup, sorted by self time (heaviest first).
    totals: dict[str, list[float]] = {}
    for sid in order:
        name = str(by_id[sid]["name"])
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = [0.0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += float(by_id[sid]["seconds"])
        entry[2] += self_seconds[sid]
    rows = tuple(
        ProfileRow(name, int(calls), cum, self_time)
        for name, (calls, cum, self_time) in sorted(
            totals.items(), key=lambda item: (-item[1][2], item[0])
        )
    )

    # Stack paths (root;...;span), memoised along parent chains so the
    # walk is linear even on deep traces.
    paths: dict[int, str] = {}
    for sid in order:
        chain: list[int] = []
        cursor: int | None = sid
        while cursor is not None and cursor not in paths:
            chain.append(cursor)
            parent = by_id[cursor].get("parent")
            cursor = (
                int(parent)
                if parent is not None and int(parent) in by_id
                else None
            )
        prefix = paths[cursor] if cursor is not None else ""
        for node in reversed(chain):
            name = str(by_id[node]["name"])
            prefix = name if not prefix else f"{prefix};{name}"
            paths[node] = prefix
    folded: dict[str, float] = {}
    for sid in order:
        folded[paths[sid]] = folded.get(paths[sid], 0.0) + self_seconds[sid]

    # Critical path: heaviest root, then greedily the heaviest child;
    # equal durations go to the lowest span id.
    critical: list[PathStep] = []
    if root_ids:
        cursor2 = max(
            root_ids, key=lambda sid: (float(by_id[sid]["seconds"]), -sid)
        )
        while True:
            record = by_id[cursor2]
            critical.append(
                PathStep(
                    cursor2,
                    str(record["name"]),
                    float(record["seconds"]),
                    self_seconds[cursor2],
                )
            )
            kids = children[cursor2]
            if not kids:
                break
            cursor2 = max(
                kids, key=lambda sid: (float(by_id[sid]["seconds"]), -sid)
            )

    roots = tuple(
        (str(by_id[sid]["name"]), float(by_id[sid]["seconds"]))
        for sid in root_ids
    )
    return Profile(
        rows=rows,
        roots=roots,
        critical_path=tuple(critical),
        folded=folded,
        span_count=len(order),
        total_seconds=sum(seconds for _, seconds in roots),
    )


def profile_trace(path: str | os.PathLike[str]) -> Profile:
    """:func:`read_trace_spans` + :func:`build_profile` in one call."""
    return build_profile(read_trace_spans(path))


def folded_lines(profile: Profile) -> list[str]:
    """``stack <micros>`` lines (collapse format), sorted by stack.

    Self times are rounded to integer microseconds; stacks that round
    to zero are dropped (flamegraph collapse files carry positive
    counts only) — per-root totals therefore reconcile with the root
    wall-clock to within a microsecond per recorded span.
    """
    lines: list[str] = []
    for stack in sorted(profile.folded):
        micros = int(round(profile.folded[stack] * 1_000_000))
        if micros > 0:
            lines.append(f"{stack} {micros}")
    return lines


def write_folded(path: str | os.PathLike[str], profile: Profile) -> int:
    """Write the folded-stack file; returns the number of lines."""
    lines = folded_lines(profile)
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


def render_profile(profile: Profile, top: int = 15) -> list[str]:
    """Human lines: summary, top-N self-time table, critical path."""
    lines = [
        f"profile: {profile.span_count} span(s), "
        f"{len(profile.roots)} root(s), "
        f"{profile.total_seconds:.3f}s total"
    ]
    if not profile.rows:
        return lines
    width = max(
        len(row.name) for row in profile.rows[: max(1, top)]
    )
    lines.append(
        f"{'self(s)':>10}  {'self%':>6}  {'cum(s)':>10}  "
        f"{'calls':>7}  name"
    )
    total = profile.total_seconds or 1.0
    for row in profile.rows[: max(1, top)]:
        lines.append(
            f"{row.self_seconds:>10.4f}  "
            f"{100.0 * row.self_seconds / total:>5.1f}%  "
            f"{row.cum_seconds:>10.4f}  {row.calls:>7}  "
            f"{row.name:<{width}}"
        )
    if profile.critical_path:
        chain = " > ".join(
            f"{step.name} ({step.seconds:.4f}s)"
            for step in profile.critical_path
        )
        lines.append(f"critical path: {chain}")
    return lines
