"""The store's write path: a checkpoint plus a journal of commits.

A commit whose labels the store already holds appends one journal
line (and, when it adds trees, one generation file) and rewrites
nothing; the journal line is the commit point.  These tests pin that
cost model and the crash cases it brings: a torn journal tail, a line
whose generation is gone, stale lines a crashed compaction or build
left behind, and a store of the previous format.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

from repro.cli import main
from repro.core.reference import mine_forest_reference
from repro.engine import MiningEngine, VersionedCorpus
from repro.errors import StoreError
from repro.generate import SyntheticTreeParams, synthetic_forest
from repro.generate.phylo import random_nni
from repro.obs.context import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate
from repro.store import (
    COLUMNS_FILE,
    JOURNAL_FILE,
    LABELS_FILE,
    STORE_FILE,
    PairStore,
)

from tests.delta.equivalence import mirror, pattern_tuples

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "schemas", "store.schema.json"
)


def forest(count, seed, alphabetsize=8):
    return synthetic_forest(
        SyntheticTreeParams(
            treesize=12, databasesize=count, alphabetsize=alphabetsize
        ),
        rng=seed,
    )


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    with obs_scope(registry=reg):
        yield reg


def read_errors(registry):
    return registry.snapshot()["counters"].get("store.read_errors", 0)


def sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def journal(directory):
    with open(os.path.join(directory, JOURNAL_FILE), "rb") as handle:
        return handle.read()


def generations(directory):
    return sorted(name for name in os.listdir(directory) if name.startswith("gen-"))


def variants(trees, count, seed=0):
    """NNI variants of corpus members: no label the store lacks."""
    return [
        random_nni(tree, seed + number)
        for number, tree in enumerate(trees[:count])
    ]


def churned(tmp_path, trees):
    """A packed corpus after three commits that fit its labels."""
    corpus = VersionedCorpus(trees)
    store = corpus.pack_store(str(tmp_path / "store"))
    for number in range(3):
        added = variants(trees, 2, seed=10 * number)
        corpus.add_trees(added)
        mirror(trees, "add", added)
        corpus.remove_trees([number])
        mirror(trees, "remove", [number])
    return corpus, store


def assert_serves(directory, trees):
    reopened = PairStore.open(directory)
    for minsup in (1, 2):
        assert pattern_tuples(reopened.frequent_pairs(minsup=minsup)) == (
            pattern_tuples(mine_forest_reference(trees, minsup=minsup))
        )
    return reopened


class TestCommitCost:
    def test_non_growth_commit_leaves_the_checkpoint_alone(self, tmp_path):
        trees = forest(30, 1)
        corpus = VersionedCorpus(trees)
        store = corpus.pack_store(str(tmp_path / "store"))
        checkpoint = os.path.join(store.directory, STORE_FILE)
        before = os.stat(checkpoint)
        digest = sha256(checkpoint)
        added = variants(trees, 3)
        corpus.add_trees(added)
        corpus.remove_trees([4])
        mirror(trees, "add", added)
        mirror(trees, "remove", [4])
        after = os.stat(checkpoint)
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino,
            before.st_mtime_ns,
        )
        assert sha256(checkpoint) == digest
        assert len(journal(store.directory).splitlines()) == 2
        assert len(generations(store.directory)) == 2
        reopened = assert_serves(store.directory, trees)
        assert reopened.version == corpus.version == 2
        assert reopened.members == store.members
        assert reopened.names == store.names == list(corpus.names)
        assert reopened.fingerprint == corpus.fingerprint

    def test_commit_bytes_do_not_grow_with_the_corpus(self, tmp_path):
        """A 50-tree and a 500-tree corpus append journal lines of the
        same size (up to the digits of uids and positions)."""
        sizes = []
        for count in (50, 500):
            trees = forest(count, 2)
            corpus = VersionedCorpus(trees)
            store = corpus.pack_store(str(tmp_path / f"store{count}"))
            corpus.add_trees(variants(trees[7:], 1))
            corpus.remove_trees([3])
            lines = journal(store.directory).splitlines()
            assert len(lines) == 2
            sizes.append([len(line) for line in lines])
        for small, large in zip(*sizes):
            assert abs(large - small) <= 16, sizes

    def test_checkpoint_and_journal_match_the_schema(self, tmp_path):
        trees = forest(12, 3)
        _corpus, store = churned(tmp_path, trees)
        with open(SCHEMA_PATH) as handle:
            schema = json.load(handle)
        with open(os.path.join(store.directory, STORE_FILE)) as handle:
            assert validate(json.load(handle), schema) == []
        line_schema = {"$ref": "#/$defs/journal_line"}
        lines = journal(store.directory).splitlines()
        assert len(lines) == 6
        for line in lines:
            assert validate(json.loads(line), line_schema, root=schema) == []

    def test_live_row_map_equals_a_reopen(self, tmp_path):
        trees = forest(12, 4)
        corpus, store = churned(tmp_path, trees)
        reopened = assert_serves(store.directory, trees)
        assert reopened._rows == store._rows
        assert reopened.next_uid == store.next_uid == corpus._next_uid

    def test_reordered_members_compact(self, tmp_path, registry):
        trees = forest(6, 5)
        VersionedCorpus(trees).pack_store(str(tmp_path / "store"))
        store = PairStore.open(str(tmp_path / "store"))
        members = list(reversed(store.members))
        store.apply(members, {}, version=1, log={"version": 1})
        assert registry.snapshot()["counters"]["store.compactions"] == 1
        assert journal(store.directory) == b""
        assert_serves(store.directory, list(reversed(trees)))


class TestJournalCrashes:
    def test_torn_tail_is_ignored_then_cut(self, tmp_path, registry):
        trees = forest(12, 6)
        corpus, store = churned(tmp_path, trees)
        committed = journal(store.directory)
        torn = b'{"version":7,"serial":9,"next_uid":40,"drop":[1'
        with open(os.path.join(store.directory, JOURNAL_FILE), "ab") as handle:
            handle.write(torn)
        reopened = VersionedCorpus.open(store.directory)
        assert reopened.version == corpus.version
        assert read_errors(registry) == 0
        assert_serves(store.directory, trees)
        reopened.remove_trees([0])
        mirror(trees, "remove", [0])
        data = journal(store.directory)
        assert data.startswith(committed) and torn not in data
        assert len(data.splitlines()) == len(committed.splitlines()) + 1
        assert_serves(store.directory, trees)

    def test_missing_generation_fails_counted(self, tmp_path, registry):
        trees = forest(12, 7)
        _corpus, store = churned(tmp_path, trees)
        last = json.loads(journal(store.directory).splitlines()[-2])
        shutil.rmtree(os.path.join(store.directory, last["generation"]["name"]))
        before = read_errors(registry)
        with pytest.raises(StoreError, match="missing store shard"):
            PairStore.open(store.directory)
        assert read_errors(registry) == before + 1

    def test_corrupt_line_fails_counted(self, tmp_path, registry):
        trees = forest(12, 8)
        _corpus, store = churned(tmp_path, trees)
        path = os.path.join(store.directory, JOURNAL_FILE)
        lines = journal(store.directory).splitlines(keepends=True)
        entry = json.loads(lines[1])
        entry["drop"] = [10_000]
        lines[1] = (json.dumps(entry) + "\n").encode()
        with open(path, "wb") as handle:
            handle.write(b"".join(lines))
        before = read_errors(registry)
        with pytest.raises(StoreError, match="journal.*line 2"):
            PairStore.open(store.directory)
        assert read_errors(registry) == before + 1

    def test_stale_lines_after_a_crashed_compaction_are_skipped(
        self, tmp_path, registry
    ):
        trees = forest(12, 9)
        corpus, store = churned(tmp_path, trees)
        stale = journal(store.directory)
        # New labels grow the universe: the commit compacts.
        novel = forest(1, 10, alphabetsize=30)
        corpus.add_trees(novel)
        mirror(trees, "add", novel)
        assert len(store._generations) == 1
        assert journal(store.directory) == b""
        # As if the compaction died between its checkpoint and the
        # journal reset: every old line is at or below its version.
        with open(os.path.join(store.directory, JOURNAL_FILE), "wb") as handle:
            handle.write(stale)
        reopened = VersionedCorpus.open(store.directory)
        assert reopened.version == corpus.version
        assert read_errors(registry) == 0
        assert_serves(store.directory, trees)
        # Later commits append after the stale lines and replay.
        reopened.remove_trees([2])
        mirror(trees, "remove", [2])
        assert journal(store.directory).startswith(stale)
        assert_serves(store.directory, trees)

    def test_stale_lines_after_a_crashed_build_are_skipped(
        self, tmp_path, registry
    ):
        """A build over an existing store that died before resetting
        the journal: the old lines' versions may exceed the new
        checkpoint's, but their serials are below it."""
        old = forest(12, 11)
        _corpus, store = churned(tmp_path, old)
        stale = journal(store.directory)
        trees = forest(5, 12)
        VersionedCorpus(trees).pack_store(store.directory)
        with open(os.path.join(store.directory, JOURNAL_FILE), "wb") as handle:
            handle.write(stale)
        reopened = assert_serves(store.directory, trees)
        assert reopened.version == 0
        assert read_errors(registry) == 0


class TestFormat2:
    def write_format_2(self, directory):
        """A store in the previous layout: eight .npy files per
        generation and a store.json rewritten on every commit."""
        VersionedCorpus(forest(4, 13)).pack_store(directory)
        path = os.path.join(directory, STORE_FILE)
        with open(path) as handle:
            checkpoint = json.load(handle)
        checkpoint["format"] = 2
        for record in checkpoint["generations"]:
            record.pop("columns")
            size = record["files"].pop(COLUMNS_FILE)
            record["files"]["full_keys.npy"] = size
        with open(path, "w") as handle:
            json.dump(checkpoint, handle)
        os.remove(os.path.join(directory, JOURNAL_FILE))

    def test_open_refuses_counted(self, tmp_path, registry):
        directory = str(tmp_path / "old")
        self.write_format_2(directory)
        before = read_errors(registry)
        with pytest.raises(StoreError, match="unsupported format 2"):
            PairStore.open(directory)
        assert read_errors(registry) == before + 1

    def test_cli_names_the_fix(self, tmp_path, capsys):
        directory = str(tmp_path / "old")
        self.write_format_2(directory)
        capsys.readouterr()
        assert main(["corpus", "log", directory, "--engine-stats"]) == 1
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert "unsupported format 2 (expected 3)" in line
        assert "run 'corpus init' again" in line
        assert "obs: store.read_errors = 1" in err
        assert "Traceback" not in err


def test_label_table_stays_in_the_base_generation(tmp_path):
    trees = forest(12, 14)
    _corpus, store = churned(tmp_path, trees)
    names = generations(store.directory)
    assert len(names) == 4
    assert os.path.exists(os.path.join(store.directory, names[0], LABELS_FILE))
    for name in names[1:]:
        assert os.listdir(os.path.join(store.directory, name)) == [COLUMNS_FILE]
    assert MiningEngine().open_store(store.directory) is not None
