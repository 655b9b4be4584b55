"""End-to-end CLI: ``profile``, ``perf ingest/log/check``, ``--profile``.

Exit codes are the contract CI builds on: ``perf check`` returns 0 on
an unchanged re-run, 1 on a synthetic 2x slowdown, 2 on an unreadable
manifest — and ``--report`` files validate line-by-line against
``schemas/regress.schema.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.schema import validate

REPO_ROOT = Path(__file__).parents[2]
REGRESS_SCHEMA = json.loads(
    (REPO_ROOT / "schemas" / "regress.schema.json").read_text(
        encoding="utf-8"
    )
)


def write_manifest(path: Path, scale=1.0, revision="abc1234"):
    manifest = {
        "name": "bench_cli",
        "git_revision": revision,
        "python": "3.11.0",
        "params": {"trees": 50, "pack": {"seconds": 0.6 * scale}},
        "phases": [
            {"name": "pack", "seconds": 0.6 * scale},
            {"name": "query", "seconds": 0.3 * scale},
        ],
        "resources": {"max_rss_kb": 90000},
    }
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return path


@pytest.fixture
def newick(tmp_path):
    path = tmp_path / "trees.nwk"
    path.write_text(
        "((a,b),(c,(d,e)));\n((a,(b,c)),(d,e));\n((a,b),(c,d),e);\n",
        encoding="utf-8",
    )
    return path


class TestProfileCommand:
    def test_profile_over_a_traced_run(self, tmp_path, newick, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["frequent", str(newick), "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        folded = tmp_path / "out.folded"
        assert main(
            ["profile", str(trace), "--folded", str(folded), "--top", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "self(s)" in out
        lines = folded.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            stack, micros = line.rsplit(" ", 1)
            assert int(micros) > 0
            assert all(part for part in stack.split(";"))

    def test_profile_flag_prints_table_to_stderr(self, newick, capsys):
        assert main(["frequent", str(newick), "--profile"]) == 0
        err = capsys.readouterr().err
        assert "self(s)" in err
        assert "critical path" in err

    def test_profile_on_missing_trace_fails_cleanly(self, tmp_path, capsys):
        code = main(["profile", str(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestPerfIngestAndLog:
    def test_ingest_dedups_and_log_summarises(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "m.json")
        history = tmp_path / "wh"
        assert main(
            ["perf", "ingest", str(manifest), "--history", str(history)]
        ) == 0
        out = capsys.readouterr().out
        assert f"ingested {manifest}" in out
        assert "1 new record(s)" in out

        assert main(
            ["perf", "ingest", str(manifest), "--history", str(history)]
        ) == 0
        out = capsys.readouterr().out
        assert "already present" in out
        assert "0 new record(s)" in out

        assert main(["perf", "log", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "bench_cli: 1 run(s)" in out
        assert "phase.pack" in out

    def test_log_markdown_table(self, tmp_path, capsys):
        write_manifest(tmp_path / "m.json")
        history = tmp_path / "wh"
        main(["perf", "ingest", str(tmp_path / "m.json"),
              "--history", str(history)])
        capsys.readouterr()
        assert main(
            ["perf", "log", "--markdown", "--history", str(history)]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "| bench | runs | headline metric | latest | revision |"
        assert out[1] == "|---|---|---|---|---|"
        assert "| bench_cli | 1 | `phase.pack` | 0.600s | `abc1234` |" in out

    def test_log_metric_series(self, tmp_path, capsys):
        history = tmp_path / "wh"
        for i, scale in enumerate([1.0, 1.1]):
            manifest = write_manifest(
                tmp_path / f"m{i}.json", scale=scale, revision=f"rev{i}000"
            )
            main(["perf", "ingest", str(manifest), "--history", str(history)])
        capsys.readouterr()
        assert main(
            ["perf", "log", "bench_cli", "--metric", "phase.pack",
             "--history", str(history)]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["bench_cli", "rev0000", "phase.pack", "0.6"]


class TestPerfCheck:
    @pytest.fixture
    def history(self, tmp_path):
        history = tmp_path / "wh"
        for i in range(2):
            manifest = write_manifest(
                tmp_path / f"base{i}.json", revision=f"base{i}00"
            )
            assert main(
                ["perf", "ingest", str(manifest), "--history", str(history)]
            ) == 0
        return history

    def test_unchanged_rerun_exits_zero(self, tmp_path, history, capsys):
        same = write_manifest(tmp_path / "same.json", revision="same0001")
        assert main(
            ["perf", "check", str(same), "--history", str(history)]
        ) == 0
        assert "bench_cli: pass" in capsys.readouterr().out

    def test_synthetic_2x_slowdown_exits_one(self, tmp_path, history, capsys):
        slow = write_manifest(
            tmp_path / "slow.json", scale=2.0, revision="slow0001"
        )
        report_path = tmp_path / "verdicts.jsonl"
        assert main(
            ["perf", "check", str(slow), "--history", str(history),
             "--report", str(report_path)]
        ) == 1
        out = capsys.readouterr().out
        assert "bench_cli: regressed" in out
        assert "regressed: phase.pack" in out
        lines = report_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert validate(report, REGRESS_SCHEMA) == []
        assert report["status"] == "regressed"

    def test_fresh_warehouse_passes(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "m.json")
        assert main(
            ["perf", "check", str(manifest),
             "--history", str(tmp_path / "empty-wh")]
        ) == 0
        assert "no baseline yet" in capsys.readouterr().out

    def test_unreadable_manifest_exits_two(self, tmp_path, history, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("torn {", encoding="utf-8")
        assert main(
            ["perf", "check", str(bad), "--history", str(history)]
        ) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_threshold_flag_loosens_the_band(self, tmp_path, history):
        slow = write_manifest(
            tmp_path / "slow.json", scale=2.0, revision="slow0001"
        )
        assert main(
            ["perf", "check", str(slow), "--history", str(history),
             "--threshold", "1.5"]
        ) == 0


class TestSpanCoverage:
    def test_corpus_pack_trace_covers_store_spans(
        self, tmp_path, newick, capsys
    ):
        # corpus init packs the directory's pair store.
        corpus = tmp_path / "corpus"
        trace = tmp_path / "pack_trace.jsonl"
        assert main(
            ["corpus", "init", str(corpus), "--trees", str(newick),
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        names = {
            line["name"]
            for line in map(
                json.loads,
                trace.read_text(encoding="utf-8").splitlines(),
            )
            if line["type"] == "span"
        }
        assert "store.pack" in names

        # Appending to the store is the other write path; its trace
        # carries the store.append span.
        more = tmp_path / "more.nwk"
        more.write_text("((a,e),(b,(c,d)));\n", encoding="utf-8")
        append_trace = tmp_path / "append_trace.jsonl"
        assert main(
            ["corpus", "add", str(corpus), str(more),
             "--trace", str(append_trace)]
        ) == 0
        capsys.readouterr()
        append_names = {
            line["name"]
            for line in map(
                json.loads,
                append_trace.read_text(encoding="utf-8").splitlines(),
            )
            if line["type"] == "span"
        }
        assert "store.append" in append_names

    def test_lint_cli_trace_covers_run_scan_and_project(self, tmp_path, capsys):
        from repro.lint.cli import main as lint_main

        target = tmp_path / "pkg"
        target.mkdir()
        (target / "mod.py").write_text("x = 1\n", encoding="utf-8")
        trace = tmp_path / "lint_trace.jsonl"
        code = lint_main([str(target), "--trace", str(trace)])
        assert code == 0
        capsys.readouterr()
        names = {
            line["name"]
            for line in map(
                json.loads,
                trace.read_text(encoding="utf-8").splitlines(),
            )
            if line["type"] == "span"
        }
        assert {"lint.run", "lint.scan", "lint.project"} <= names
