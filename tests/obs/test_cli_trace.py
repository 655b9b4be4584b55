"""End-to-end: ``repro distance --trace`` emits a coherent span tree.

The acceptance shape: the trace's spans cover the batch -> mine ->
join/prune phases of a distance run, parent links form a tree rooted
in the engine spans, the file validates against the checked-in
schema, and the histogram totals in the closing snapshot reconcile
with the span durations (``EngineStats.mine_seconds`` and
``total_seconds`` are those same histograms, viewed through the stats
facade).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.schema import validate

REPO_ROOT = Path(__file__).parents[2]
TRACE_SCHEMA = json.loads(
    (REPO_ROOT / "schemas" / "trace.schema.json").read_text(encoding="utf-8")
)


@pytest.fixture
def trace(tmp_path, capsys):
    first = tmp_path / "first.nwk"
    first.write_text("((a,b),(c,(d,e)));\n", encoding="utf-8")
    second = tmp_path / "second.nwk"
    second.write_text("((a,(b,c)),(d,e));\n", encoding="utf-8")
    path = tmp_path / "trace.jsonl"
    code = main(
        ["distance", str(first), str(second), "--trace", str(path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    float(out.strip())  # stdout stays exactly the distance value
    return [
        json.loads(raw)
        for raw in path.read_text(encoding="utf-8").splitlines()
    ]


def spans_by_name(lines):
    by_name: dict[str, list[dict]] = {}
    for line in lines:
        if line["type"] == "span":
            by_name.setdefault(line["name"], []).append(line)
    return by_name


class TestDistanceTrace:
    def test_schema_valid_with_meta_and_snapshot(self, trace):
        for line in trace:
            assert validate(line, TRACE_SCHEMA) == []
        assert trace[0]["type"] == "meta"
        assert trace[0]["command"] == "distance"
        assert trace[0]["spans"] == sum(
            1 for line in trace if line["type"] == "span"
        )
        assert trace[-1]["type"] == "snapshot"

    def test_span_tree_covers_lookup_mine_and_join(self, trace):
        names = spans_by_name(trace)
        for required in (
            "engine.distance.vectors",
            "engine.batch",
            "engine.mine",
            "fastmine.sweep",
            "distvec.build",
            "distvec.join",
        ):
            assert required in names, f"missing span {required}"
        # A one-shot CLI engine addresses nothing: the batch goes
        # straight to mining.  Only a corpus addresses its trees.
        assert "engine.lookup" not in names
        batch = names["engine.batch"][0]
        assert names["engine.mine"][0]["parent"] == batch["id"]
        assert batch["parent"] == names["engine.distance.vectors"][0]["id"]
        mine_id = names["engine.mine"][0]["id"]
        assert all(
            sweep["parent"] == mine_id for sweep in names["fastmine.sweep"]
        )

    def test_histogram_totals_reconcile_with_spans(self, trace):
        names = spans_by_name(trace)
        histograms = trace[-1]["registry"]["histograms"]
        # mine_seconds / total_seconds (the EngineStats facade fields)
        # are these registry histograms; each must equal the summed
        # span durations of the matching span name.
        for metric, span_name in (
            ("engine.mine.seconds", "engine.mine"),
            ("engine.batch.seconds", "engine.batch"),
        ):
            recorded = histograms[metric]
            spanned = names[span_name]
            assert recorded["count"] == len(spanned)
            assert recorded["total"] == pytest.approx(
                sum(span["seconds"] for span in spanned), rel=1e-6
            )

    def test_join_and_prune_counters_in_snapshot(self, trace):
        counters = trace[-1]["registry"]["counters"]
        assert counters["distvec.joins"] == 1
        assert counters["engine.distance.builds"] == 1
        assert counters["engine.lookups"] == 2


class TestFrequentTrace:
    """A ``frequent`` run is spanned from reading the file to printing."""

    def test_spans_cover_read_mine_and_format(self, tmp_path, capsys):
        forest = tmp_path / "forest.nwk"
        forest.write_text("((a,b),(c,d));\n((a,b),(c,e));\n", encoding="utf-8")
        path = tmp_path / "trace.jsonl"
        assert main(["frequent", str(forest), "--trace", str(path)]) == 0
        assert capsys.readouterr().out.startswith("# ")
        lines = [
            json.loads(raw)
            for raw in path.read_text(encoding="utf-8").splitlines()
        ]
        for line in lines:
            assert validate(line, TRACE_SCHEMA) == []
        names = spans_by_name(lines)
        for required in (
            "trees.read", "engine.batch", "fastmine.sweep",
            "multi_tree.aggregate", "cli.format",
        ):
            assert required in names, f"missing span {required}"
        read, = names["trees.read"]
        formatted, = names["cli.format"]
        batch, = names["engine.batch"]
        aggregate, = names["multi_tree.aggregate"]
        assert read["parent"] is None and formatted["parent"] is None
        assert aggregate["parent"] is None
        assert (
            read["start"] < batch["start"] < aggregate["start"]
            < formatted["start"]
        )

    def test_one_sweep_per_engine_mine(self, tmp_path, capsys):
        forest = tmp_path / "forest.nwk"
        forest.write_text(
            "((a,b),(c,d));\n((a,b),(c,e));\n(a,(b,(c,d)));\n((a,b),(c,d));\n",
            encoding="utf-8",
        )
        path = tmp_path / "trace.jsonl"
        assert main(["frequent", str(forest), "--trace", str(path)]) == 0
        capsys.readouterr()
        lines = [
            json.loads(raw)
            for raw in path.read_text(encoding="utf-8").splitlines()
        ]
        names = spans_by_name(lines)
        mines = names["engine.mine"]
        sweeps = names["fastmine.sweep"]
        assert len(sweeps) == len(mines) == 1
        assert sweeps[0]["parent"] == mines[0]["id"]
        # The batch's four trees (7 nodes each) in one sweep: the
        # engine addresses nothing, so the repeated tree is mined
        # again rather than looked up.
        assert "engine.lookup" not in names
        counters = lines[-1]["registry"]["counters"]
        assert counters["fastmine.trees"] == 4
        assert counters["fastmine.nodes"] == 28
        assert counters["engine.lookups"] == counters["fastmine.trees"]
        assert not any(name.startswith("engine.cache.") for name in counters)
