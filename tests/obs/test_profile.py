"""Profile rollups, critical path, folded export and reconciliation.

The acceptance shape of the tentpole: profiles built from synthetic
span forests have exact rollup arithmetic, the critical path is a real
root-to-leaf chain of the recorded tree, folded output is valid
collapse format — and a profile over the *traced store benchmark*'s
JSONL reconciles per root with the manifest phase timings the same run
reported.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import TraceError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    build_profile,
    folded_lines,
    profile_trace,
    read_trace_spans,
    render_profile,
    write_folded,
)
from repro.obs.trace import Tracer

SPANS = [
    {"id": 0, "parent": None, "name": "root", "seconds": 1.0},
    {"id": 1, "parent": 0, "name": "child", "seconds": 0.6},
    {"id": 2, "parent": 1, "name": "leaf", "seconds": 0.2},
    {"id": 3, "parent": 0, "name": "child", "seconds": 0.1},
]


class TestRollups:
    def test_cumulative_and_self_times(self):
        profile = build_profile(SPANS)
        child = profile.row("child")
        assert child.calls == 2
        assert child.cum_seconds == pytest.approx(0.7)
        # 0.6 - 0.2 (nested leaf) plus 0.1 with no children.
        assert child.self_seconds == pytest.approx(0.5)
        root = profile.row("root")
        assert root.self_seconds == pytest.approx(1.0 - 0.6 - 0.1)

    def test_self_times_sum_to_root_wall_clock(self):
        profile = build_profile(SPANS)
        assert sum(row.self_seconds for row in profile.rows) == (
            pytest.approx(profile.total_seconds)
        )

    def test_rows_sorted_by_self_time(self):
        profile = build_profile(SPANS)
        selfs = [row.self_seconds for row in profile.rows]
        assert selfs == sorted(selfs, reverse=True)

    def test_negative_self_time_clamped(self):
        # Children may sum to a hair over the parent (timer jitter);
        # self time clamps at zero instead of going negative.
        jitter = [
            {"id": 0, "parent": None, "name": "r", "seconds": 1.0},
            {"id": 1, "parent": 0, "name": "a", "seconds": 0.7},
            {"id": 2, "parent": 0, "name": "b", "seconds": 0.4},
        ]
        profile = build_profile(jitter)
        assert profile.row("r").self_seconds == 0.0

    def test_orphan_parent_counts_as_root(self):
        subset = [
            {"id": 5, "parent": 99, "name": "x", "seconds": 0.3},
        ]
        profile = build_profile(subset)
        assert profile.roots == (("x", 0.3),)

    def test_accepts_live_span_records(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        profile = build_profile(tracer.records)
        assert {row.name for row in profile.rows} == {"outer", "inner"}
        assert [step.name for step in profile.critical_path] == [
            "outer",
            "inner",
        ]


class TestCriticalPath:
    def test_is_a_real_root_to_leaf_chain(self):
        profile = build_profile(SPANS)
        names = [step.name for step in profile.critical_path]
        assert names == ["root", "child", "leaf"]

    def test_follows_heaviest_child(self):
        spans = [
            {"id": 0, "parent": None, "name": "r", "seconds": 2.0},
            {"id": 1, "parent": 0, "name": "light", "seconds": 0.2},
            {"id": 2, "parent": 0, "name": "heavy", "seconds": 1.5},
            {"id": 3, "parent": 2, "name": "tail", "seconds": 0.4},
        ]
        profile = build_profile(spans)
        assert [step.name for step in profile.critical_path] == [
            "r",
            "heavy",
            "tail",
        ]

    def test_equal_durations_break_to_the_lowest_span_id(self):
        spans = [
            {"id": 7, "parent": None, "name": "r", "seconds": 1.0},
            {"id": 3, "parent": None, "name": "r", "seconds": 1.0},
            {"id": 9, "parent": 3, "name": "c", "seconds": 0.5},
            {"id": 4, "parent": 3, "name": "c", "seconds": 0.5},
        ]
        for order in (spans, spans[::-1]):
            path = build_profile(order).critical_path
            assert [step.span_id for step in path] == [3, 4]

    def test_empty_profile(self):
        profile = build_profile([])
        assert profile.critical_path == ()
        assert profile.rows == ()
        assert render_profile(profile)  # summary line still renders


class TestFolded:
    def test_collapse_format(self):
        lines = folded_lines(build_profile(SPANS))
        assert lines == [
            "root 300000",
            "root;child 500000",
            "root;child;leaf 200000",
        ]
        for line in lines:
            stack, micros = line.rsplit(" ", 1)
            assert int(micros) > 0
            assert all(part for part in stack.split(";"))

    def test_per_root_totals_reconcile_with_root_wall_clock(self):
        profile = build_profile(SPANS)
        total = sum(
            int(line.rsplit(" ", 1)[1]) for line in folded_lines(profile)
        )
        assert total == pytest.approx(1_000_000, abs=2)

    def test_write_folded_roundtrip(self, tmp_path):
        profile = build_profile(SPANS)
        target = tmp_path / "out.folded"
        count = write_folded(target, profile)
        assert count == 3
        assert target.read_text(encoding="utf-8").splitlines() == (
            folded_lines(profile)
        )


class TestReadTrace:
    def test_reads_span_lines_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "version": 1}) + "\n"
            + json.dumps(
                {"type": "span", "id": 0, "parent": None,
                 "name": "a", "seconds": 0.5}
            ) + "\n"
            + json.dumps({"type": "snapshot", "registry": {}}) + "\n",
            encoding="utf-8",
        )
        spans = read_trace_spans(path)
        assert len(spans) == 1 and spans[0]["name"] == "a"
        assert profile_trace(path).total_seconds == pytest.approx(0.5)

    def test_not_json_raises_trace_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(TraceError):
            read_trace_spans(path)

    def test_missing_field_raises_trace_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "span", "id": 0}) + "\n", encoding="utf-8"
        )
        with pytest.raises(TraceError, match="missing"):
            read_trace_spans(path)


class TestStoreBenchReconciliation:
    """The acceptance criterion: traced store bench vs its manifest."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        from benchmarks.bench_store import run_traced

        tmp = tmp_path_factory.mktemp("traced_bench")
        trace_path = tmp / "store_trace.jsonl"
        payload = run_traced(60, str(trace_path), smoke=True)
        return payload, trace_path

    def test_per_root_self_time_totals_reconcile_with_phases(self, traced):
        payload, trace_path = traced
        profile = profile_trace(trace_path)
        phase_seconds = {
            phase["name"]: phase["seconds"] for phase in payload["phases"]
        }
        assert dict(profile.roots) == pytest.approx(phase_seconds)
        # Folded self-times, grouped by root stack segment, sum back to
        # each phase's wall-clock (clamping loses at most jitter).
        per_root: dict[str, float] = {}
        for stack, seconds in profile.folded.items():
            root = stack.split(";", 1)[0]
            per_root[root] = per_root.get(root, 0.0) + seconds
        for name, seconds in phase_seconds.items():
            assert per_root[name] == pytest.approx(seconds, rel=0.02)

    def test_folded_file_parses_as_collapse_format(self, traced, tmp_path):
        _, trace_path = traced
        profile = profile_trace(trace_path)
        target = tmp_path / "store.folded"
        assert write_folded(target, profile) > 0
        for line in target.read_text(encoding="utf-8").splitlines():
            stack, micros = line.rsplit(" ", 1)
            assert int(micros) > 0
            assert all(part for part in stack.split(";"))

    def test_store_spans_present(self, traced):
        _, trace_path = traced
        profile = profile_trace(trace_path)
        names = {row.name for row in profile.rows}
        assert "store.pack" in names
        assert {"pack", "inram", "store"} <= names
