"""Differential harness: an attached pair store tracks every commit.

Extends the delta equivalence contract to :mod:`repro.store`: a
corpus with an attached :class:`PairStore` must, after every add /
remove / replace, leave the on-disk store byte-identical to a
from-scratch re-mine of the current tree sequence — checked through
the live store object, a cold store reopen and a cold
:meth:`VersionedCorpus.open`, whose log must equal the live one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.reference import mine_forest_reference
from repro.engine import MiningEngine, VersionedCorpus
from repro.generate import SyntheticTreeParams, synthetic_forest
from repro.generate.phylo import random_nni
from repro.store import PairStore

from tests.delta.equivalence import (
    assert_corpus_matches_remine,
    minsups,
    mirror,
    pattern_tuples,
)


def forest(count, seed):
    return synthetic_forest(
        SyntheticTreeParams(treesize=12, databasesize=count, alphabetsize=6),
        rng=seed,
    )


def assert_store_matches_remine(store, trees, context=""):
    """The on-disk rows serve the same bytes as a fresh re-mine."""
    for minsup in minsups(trees):
        for ignore_distance in (False, True):
            got = store.frequent_pairs(
                minsup=minsup, ignore_distance=ignore_distance
            )
            want = mine_forest_reference(
                trees,
                maxdist=store.params.maxdist,
                minoccur=store.params.minoccur,
                minsup=minsup,
                ignore_distance=ignore_distance,
                max_generation_gap=store.params.max_generation_gap,
                max_height=store.params.max_height,
            )
            assert pattern_tuples(got) == pattern_tuples(want), (
                f"{context}: store pairs diverged at minsup={minsup} "
                f"ignore_distance={ignore_distance}"
            )
    reference = DistanceVectors.from_trees(
        trees, minoccur=store.params.minoccur
    )
    vectors = store.as_vectors()
    for mode in DistanceMode:
        assert np.array_equal(
            np.asarray(vectors.matrix(mode)),
            np.asarray(reference.matrix(mode)),
        ), f"{context}: store {mode.value} matrix diverged"


def assert_in_sync(corpus, trees, directory, context=""):
    assert_corpus_matches_remine(corpus, trees, context)
    live = corpus.store
    assert live is not None
    assert live.version == corpus.version, context
    assert live.fingerprint == corpus.fingerprint, context
    assert_store_matches_remine(live, trees, f"{context} (live)")
    reopened = PairStore.open(directory)
    assert_store_matches_remine(reopened, trees, f"{context} (reopened)")
    cold = VersionedCorpus.open(directory)
    assert cold.snapshot() == corpus.snapshot(), context
    assert cold.names == corpus.names, context
    assert cold.log() == corpus.log(), context
    assert_corpus_matches_remine(cold, trees, f"{context} (cold open)")


@pytest.fixture
def engine():
    return MiningEngine()


def churn(corpus, trees, directory, steps):
    """Apply ``(op, payload)`` steps, mirrored, checking each commit."""
    for op, payload in steps:
        getattr(corpus, f"{op}_trees")(payload)
        mirror(trees, op, payload)
        assert_in_sync(corpus, trees, directory, f"after {op} v{corpus.version}")


def test_churn_against_attached_store(engine, tmp_path):
    directory = str(tmp_path / "store")
    trees = forest(6, 1)
    corpus = VersionedCorpus(trees, engine=engine)
    corpus.pack_store(directory)
    assert_in_sync(corpus, trees, directory, "after pack")
    churn(
        corpus,
        trees,
        directory,
        [
            ("add", forest(3, 2)),
            ("remove", [1, 4]),
            ("replace", {0: forest(1, 3)[0], 5: forest(1, 4)[0]}),
            # Heavy removal forces a compaction.
            ("remove", list(range(4))),
            # Down to an empty forest, then back up from nothing.
            ("remove", list(range(3))),
            ("add", forest(2, 11)),
        ],
    )


def test_churn_open_churn_stays_in_sync(engine, tmp_path):
    directory = str(tmp_path / "store")
    trees = forest(5, 5)
    corpus = VersionedCorpus(trees, engine=engine)
    corpus.pack_store(directory)
    churn(corpus, trees, directory, [("add", forest(2, 6)), ("remove", [6, 0])])
    # A fresh process's view: rows off the store, no tree re-mined.
    reopened = VersionedCorpus.open(directory, engine=MiningEngine())
    assert reopened.engine.stats.trees_seen == 0
    assert_in_sync(reopened, trees, directory, "after open")
    grown = synthetic_forest(
        SyntheticTreeParams(treesize=12, databasesize=2, alphabetsize=30),
        rng=7,
    )
    churn(
        reopened,
        trees,
        directory,
        [
            ("add", grown),
            ("replace", {1: forest(1, 8)[0]}),
            ("remove", [5]),
            ("add", forest(1, 9)),
        ],
    )
    # Uids stay unique across the reopen, removed trees included.
    added = [ref.uid for delta in reopened.log() for ref in delta.added]
    assert len(added) == len(set(added))


def test_label_growth_forces_compaction(engine, tmp_path):
    directory = str(tmp_path / "store")
    trees = forest(4, 7)
    corpus = VersionedCorpus(trees, engine=engine)
    corpus.pack_store(directory)
    # A bigger alphabet introduces labels the store has never interned.
    grown = synthetic_forest(
        SyntheticTreeParams(treesize=12, databasesize=3, alphabetsize=30),
        rng=8,
    )
    churn(corpus, trees, directory, [("add", grown)])


def test_store_version_tracks_every_commit(engine, tmp_path):
    directory = str(tmp_path / "store")
    corpus = VersionedCorpus(forest(4, 9), engine=engine)
    corpus.pack_store(directory)
    for step in range(3):
        corpus.add_trees(forest(1, 10 + step))
        assert corpus.store.version == corpus.version
        assert PairStore.open(directory).version == corpus.version


def test_commit_of_known_labels_makes_no_label_lookup(engine, tmp_path, monkeypatch):
    """The corpus hands the store rows on the store's own label tuple:
    a commit that brings no new label looks none up, also after a
    label-growth compaction."""
    from repro.store import pairstore

    directory = str(tmp_path / "store")
    trees = forest(5, 12)
    corpus = VersionedCorpus(trees, engine=engine)
    corpus.pack_store(directory)
    looked = []
    find = pairstore.find_label

    def spy(labels, label):
        looked.append(label)
        return find(labels, label)

    monkeypatch.setattr(pairstore, "find_label", spy)
    grown = synthetic_forest(
        SyntheticTreeParams(treesize=12, databasesize=2, alphabetsize=30),
        rng=13,
    )
    for op, payload, lookups in [
        ("add", trees[:2], False),
        ("replace", {1: trees[4]}, False),
        ("add", grown, True),
        ("add", grown[:1], False),
        ("remove", [0, 3], False),
    ]:
        looked.clear()
        getattr(corpus, f"{op}_trees")(payload)
        mirror(trees, op, payload)
        assert bool(looked) == lookups, (op, looked)
        assert_in_sync(corpus, trees, directory, f"after {op} v{corpus.version}")


def test_churned_corpus_builds_its_pair_index_once(tmp_path):
    """Commits patch the inverted pair index the first query built: N
    commits (label growth and a replace among them) and N top-k
    queries record one ``distvec.index`` span."""
    from repro.obs.trace import Tracer

    tracer = Tracer()
    engine = MiningEngine(registry=tracer.registry, tracer=tracer)
    trees = forest(8, 14)
    corpus = VersionedCorpus(trees, engine=engine)
    corpus.pack_store(str(tmp_path / "store"))
    grown = synthetic_forest(
        SyntheticTreeParams(treesize=12, databasesize=2, alphabetsize=30),
        rng=15,
    )
    commits = [
        ("add", forest(2, 16)),
        ("remove", [0, 3]),
        ("add", grown),
        ("replace", {1: forest(1, 17)[0]}),
        ("remove", [2]),
    ]
    for number, (op, payload) in enumerate(commits):
        getattr(corpus, f"{op}_trees")(payload)
        mirror(trees, op, payload)
        result = corpus.topk_similar(trees[number], 3)
        assert result.neighbors[0][1] == 0.0
    spans = [record.name for record in tracer.records]
    assert spans.count("engine.topk") == len(commits)
    assert spans.count("distvec.index") == 1


def test_minoccur_corpus_keeps_its_filtered_index_between_queries():
    """Above ``minoccur`` 1 a corpus keeps the filtered rows, and the
    index its first query builds, until the next commit; the answers
    after the commit equal a fresh build at that ``minoccur``."""
    from repro.obs.trace import Tracer

    tracer = Tracer()
    engine = MiningEngine(registry=tracer.registry, tracer=tracer)
    trees = forest(20, 18)
    corpus = VersionedCorpus(trees, engine=engine, minoccur=2)
    for query in trees[:4]:
        corpus.topk_similar(query, 3)
    spans = [record.name for record in tracer.records]
    assert spans.count("distvec.index") == 1
    added = forest(3, 19)
    corpus.add_trees(added)
    corpus.remove_trees([1, 5])
    mirror(trees, "add", added)
    mirror(trees, "remove", [1, 5])
    fresh = DistanceVectors.from_packed(
        MiningEngine().packed_counts(trees, corpus.params)[1], minoccur=2
    )
    for mode in DistanceMode:
        for query in (trees[0], added[1]):
            got = corpus.topk_similar(query, 4, mode)
            want = MiningEngine().topk_similar(fresh, query, 4, mode, corpus.params)
            assert got.neighbors == want.neighbors


def test_non_growth_commit_collapses_each_new_tree_once(tmp_path, monkeypatch):
    """The corpus hands its store the pair projections it just made:
    a commit whose labels the store holds collapses each new tree
    once in all."""
    import repro.core.distvec as distvec
    import repro.store.pairstore as pairstore

    trees = forest(10, 20)
    corpus = VersionedCorpus(trees)
    store = corpus.pack_store(str(tmp_path / "store"))
    variants = [random_nni(tree, seed) for seed, tree in enumerate(trees[:3])]
    calls = []
    collapse = distvec._collapse_pairs

    def counting(keys, counts):
        calls.append(len(keys))
        return collapse(keys, counts)

    monkeypatch.setattr(distvec, "_collapse_pairs", counting)
    monkeypatch.setattr(pairstore, "_collapse_pairs", counting)
    corpus.add_trees(variants)
    assert len(store._generations) == 2  # appended, not compacted
    assert len(calls) == len(variants)
    monkeypatch.undo()
    mirror(trees, "add", variants)
    assert_store_matches_remine(PairStore.open(store.directory), trees)
