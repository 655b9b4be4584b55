"""End-to-end tests for the ``repro-mine corpus`` subcommand."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.engine.delta import VersionedCorpus
from repro.store import COLUMNS_FILE, LOG_FILE, STORE_FILE


@pytest.fixture
def forest_file(tmp_path):
    path = tmp_path / "forest.nwk"
    path.write_text("((a,b),(c,d));\n((a,b),(c,e));\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def more_file(tmp_path):
    path = tmp_path / "more.nwk"
    path.write_text("((a,b),f);\n(g,(h,i));\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def corpus_dir(tmp_path, forest_file):
    directory = str(tmp_path / "corpus")
    assert main(["corpus", "init", directory, "--trees", forest_file]) == 0
    return directory


class TestInit:
    def test_creates_directory_and_store(self, tmp_path, forest_file, capsys):
        directory = str(tmp_path / "corpus")
        assert main(
            ["corpus", "init", directory, "--trees", forest_file]
        ) == 0
        out = capsys.readouterr().out
        assert "initialised corpus" in out and "2 tree(s), v0" in out
        with open(f"{directory}/{STORE_FILE}", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["version"] == 0
        assert len(payload["rows"]) == 2
        with open(f"{directory}/{LOG_FILE}", encoding="utf-8") as handle:
            (record,) = [json.loads(line) for line in handle]
        assert record["op"] == "init"

    def test_empty_corpus_without_trees(self, tmp_path, capsys):
        directory = str(tmp_path / "empty")
        assert main(["corpus", "init", directory]) == 0
        assert "0 tree(s), v0" in capsys.readouterr().out

    def test_refuses_to_clobber(self, corpus_dir, forest_file, capsys):
        capsys.readouterr()
        assert main(
            ["corpus", "init", corpus_dir, "--trees", forest_file]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestAddRemove:
    def test_add_bumps_version_and_persists(
        self, corpus_dir, more_file, capsys
    ):
        capsys.readouterr()
        assert main(["corpus", "add", corpus_dir, more_file]) == 0
        out = capsys.readouterr().out
        assert "v1" in out
        assert "at #2" in out and "at #3" in out
        corpus = VersionedCorpus.open(corpus_dir)
        assert corpus.version == 1
        assert len(corpus) == 4

    def test_remove_names_the_departed(self, corpus_dir, capsys):
        capsys.readouterr()
        assert main(["corpus", "remove", corpus_dir, "0"]) == 0
        out = capsys.readouterr().out
        assert "v1" in out and "removed" in out
        assert len(VersionedCorpus.open(corpus_dir)) == 1

    def test_remove_out_of_range_is_a_clean_error(self, corpus_dir, capsys):
        capsys.readouterr()
        assert main(["corpus", "remove", corpus_dir, "99"]) == 1
        assert "out of range" in capsys.readouterr().err
        # No partial mutation was persisted.
        assert VersionedCorpus.open(corpus_dir).version == 0


class TestLogAndDiff:
    def test_log_lists_every_delta(self, corpus_dir, more_file, capsys):
        main(["corpus", "add", corpus_dir, more_file])
        main(["corpus", "remove", corpus_dir, "1"])
        capsys.readouterr()
        assert main(["corpus", "log", corpus_dir]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("v0")
        assert lines[2].startswith("v2")

    def test_diff_shows_membership_change(
        self, corpus_dir, more_file, capsys
    ):
        main(["corpus", "add", corpus_dir, more_file])
        main(["corpus", "remove", corpus_dir, "0"])
        capsys.readouterr()
        assert main(["corpus", "diff", corpus_dir, "0", "2"]) == 0
        out = capsys.readouterr().out
        assert "v0..v2" in out
        assert "+" in out and "-" in out

    def test_diff_bad_range_is_a_clean_error(self, corpus_dir, capsys):
        capsys.readouterr()
        assert main(["corpus", "diff", corpus_dir, "0", "5"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEngineFlags:
    def test_engine_stats_reports_delta_counters(
        self, corpus_dir, more_file, capsys
    ):
        capsys.readouterr()
        assert main(
            ["corpus", "add", corpus_dir, more_file, "--engine-stats"]
        ) == 0
        assert "delta: 1 update(s)" in capsys.readouterr().err

    def test_trace_flag_records_delta_span(
        self, corpus_dir, more_file, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["corpus", "add", corpus_dir, more_file, "--trace", str(trace)]
        ) == 0
        assert "delta.update" in trace.read_text(encoding="utf-8")

    def test_engine_stats_are_reported_on_failure(self, corpus_dir, capsys):
        generation = sorted(
            name for name in os.listdir(corpus_dir) if name.startswith("gen-")
        )[-1]
        with open(
            os.path.join(corpus_dir, generation, COLUMNS_FILE), "r+b"
        ) as handle:
            handle.truncate(16)
        capsys.readouterr()
        assert main(["corpus", "log", corpus_dir, "--engine-stats"]) == 1
        err = capsys.readouterr().err
        assert "truncated store shard" in err
        assert "obs: store.read_errors = 1" in err

    def test_jobs_flag_is_accepted(self, corpus_dir, more_file, capsys):
        capsys.readouterr()
        assert main(
            ["corpus", "add", corpus_dir, more_file, "--jobs", "2"]
        ) == 0
        assert "v1" in capsys.readouterr().out


class TestPersistence:
    def test_reopened_store_preserves_log_and_results(
        self, corpus_dir, more_file, capsys
    ):
        main(["corpus", "add", corpus_dir, more_file])
        corpus = VersionedCorpus.open(corpus_dir)
        assert corpus.version == 1
        assert [d.version for d in corpus.log()] == [0, 1]
        pairs = corpus.frequent_pairs(minsup=2)
        assert any(
            (p.label_a, p.label_b) == ("a", "b") for p in pairs
        )

    def test_format_1_store_names_the_fix(self, corpus_dir, capsys):
        path = os.path.join(corpus_dir, STORE_FILE)
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["format"] = 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        capsys.readouterr()
        assert main(["corpus", "log", corpus_dir, "--engine-stats"]) == 1
        err = capsys.readouterr().err
        assert "unsupported format 1" in err
        assert "run 'corpus init' again" in err
        assert "obs: store.read_errors = 1" in err

    def test_open_missing_directory_is_a_clean_error(self, tmp_path, capsys):
        assert main(["corpus", "log", str(tmp_path / "absent")]) == 1
        assert "error:" in capsys.readouterr().err
