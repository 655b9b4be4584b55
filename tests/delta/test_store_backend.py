"""Differential harness: an attached pair store tracks every commit.

Extends the delta equivalence contract to :mod:`repro.store`: a
corpus with an attached :class:`PairStore` must, after every add /
remove / replace, leave the on-disk store byte-identical to a
from-scratch re-mine of the current tree sequence — checked both
through the live store object and through a cold reopen.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.reference import mine_forest_reference
from repro.engine import MiningEngine, VersionedCorpus
from repro.generate import SyntheticTreeParams, synthetic_forest
from repro.store import PairStore

from tests.delta.equivalence import (
    assert_corpus_matches_remine,
    minsups,
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


def assert_in_sync(corpus, directory, context=""):
    trees = list(corpus.trees)
    assert_corpus_matches_remine(corpus, context)
    live = corpus.store
    assert live is not None
    assert live.version == corpus.version, context
    assert live.fingerprint == corpus.fingerprint, context
    assert_store_matches_remine(live, trees, f"{context} (live)")
    reopened = PairStore.open(directory)
    assert_store_matches_remine(reopened, trees, f"{context} (reopened)")


@pytest.fixture
def engine(tmp_path):
    return MiningEngine(cache_dir=str(tmp_path / "cache"))


def test_churn_against_attached_store(engine, tmp_path):
    directory = str(tmp_path / "store")
    corpus = VersionedCorpus(forest(6, 1), engine=engine)
    corpus.pack_store(directory)
    assert_in_sync(corpus, directory, "after pack")

    corpus.add_trees(forest(3, 2))
    assert_in_sync(corpus, directory, "after add")

    corpus.remove_trees([1, 4])
    assert_in_sync(corpus, directory, "after remove")

    corpus.replace_trees({0: forest(1, 3)[0], 5: forest(1, 4)[0]})
    assert_in_sync(corpus, directory, "after replace")

    # Heavy removal forces a compaction; identity must survive it.
    corpus.remove_trees(list(range(4)))
    assert_in_sync(corpus, directory, "after compacting remove")

    # Down to an empty forest, then back up from nothing.
    corpus.remove_trees(list(range(len(corpus))))
    assert_in_sync(corpus, directory, "after removing every tree")
    corpus.add_trees(forest(2, 11))
    assert_in_sync(corpus, directory, "after refilling")


def test_attach_syncs_a_stale_store(engine, tmp_path):
    directory = str(tmp_path / "store")
    corpus = VersionedCorpus(forest(5, 5), engine=engine)
    corpus.pack_store(directory)
    # Mutate with no store attached, then attach the stale snapshot.
    detached = VersionedCorpus.restore(
        list(corpus.trees),
        corpus.params,
        engine=engine,
        version=corpus.version,
        history=[delta.as_dict() for delta in corpus.log()],
        uids=[ref.uid for ref in corpus.snapshot().refs],
    )
    detached.add_trees(forest(2, 6))
    detached.attach_store(PairStore.open(directory))
    assert_in_sync(detached, directory, "after stale attach")


def test_label_growth_forces_compaction(engine, tmp_path):
    directory = str(tmp_path / "store")
    corpus = VersionedCorpus(forest(4, 7), engine=engine)
    corpus.pack_store(directory)
    # A bigger alphabet introduces labels the store has never interned.
    grown = synthetic_forest(
        SyntheticTreeParams(treesize=12, databasesize=3, alphabetsize=30),
        rng=8,
    )
    corpus.add_trees(grown)
    assert_in_sync(corpus, directory, "after label growth")


def test_store_version_tracks_every_commit(engine, tmp_path):
    directory = str(tmp_path / "store")
    corpus = VersionedCorpus(forest(4, 9), engine=engine)
    corpus.pack_store(directory)
    for step in range(3):
        corpus.add_trees(forest(1, 10 + step))
        assert corpus.store.version == corpus.version
        assert PairStore.open(directory).version == corpus.version
