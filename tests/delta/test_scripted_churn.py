"""Scripted churn sequences: seeded, larger, stats- and cache-aware.

Complements the Hypothesis machine with deterministic sequences that
exercise the interesting compositions at a size the fuzzer cannot
afford: interleaved add/remove/replace over synthetic forests, warm
engine caches, materialised matrices patched across many steps, and
the ``delta_*`` stats accounting.
"""

from __future__ import annotations

import pytest

from repro.core.distance import DistanceMode
from repro.engine import MiningEngine, VersionedCorpus
from repro.generate import SyntheticTreeParams, synthetic_forest

from tests.delta.equivalence import assert_corpus_matches_remine, mirror


def forest(count, seed, treesize=14, alphabetsize=8):
    return synthetic_forest(
        SyntheticTreeParams(
            treesize=treesize, databasesize=count, alphabetsize=alphabetsize
        ),
        rng=seed,
    )


def test_long_interleaved_churn_stays_byte_identical():
    trees = forest(10, 1)
    corpus = VersionedCorpus(trees, minoccur=1)
    # Materialise every mode up front so each later step patches all
    # four matrices rather than rebuilding them lazily.
    for mode in DistanceMode:
        corpus.distance_matrix(mode)
    steps = [
        ("add", forest(4, 2)),
        ("remove", [0, 5, 11]),
        ("replace", {2: forest(1, 3)[0], 8: forest(1, 4)[0]}),
        ("add", forest(2, 5)),
        ("remove", [1]),
        ("replace", {0: forest(1, 6)[0]}),
        ("add", forest(1, 7)),
    ]
    for index, (op, payload) in enumerate(steps):
        if op == "add":
            corpus.add_trees(payload)
        elif op == "remove":
            corpus.remove_trees(payload)
        else:
            corpus.replace_trees(payload)
        mirror(trees, op, payload)
        assert corpus.version == index + 1
        assert_corpus_matches_remine(
            corpus, trees, context=f"step {index} {op}"
        )


def test_churn_to_empty_and_back():
    corpus = VersionedCorpus(forest(3, 9), minoccur=1)
    for mode in DistanceMode:
        corpus.distance_matrix(mode)
    corpus.remove_trees([0, 1, 2])
    assert len(corpus) == 0
    assert_corpus_matches_remine(corpus, [], context="emptied")
    assert corpus.frequent_pairs(minsup=1) == []
    corpus.add_trees(forest(4, 10))
    assert_corpus_matches_remine(corpus, forest(4, 10), context="refilled")


def test_minoccur_threshold_survives_churn():
    trees = forest(8, 11)
    corpus = VersionedCorpus(trees, minoccur=2)
    for op, payload in [
        ("add", forest(3, 12)),
        ("remove", [2, 6]),
        ("replace", {1: forest(1, 13)[0]}),
    ]:
        getattr(corpus, f"{op}_trees")(payload)
        mirror(trees, op, payload)
    assert_corpus_matches_remine(corpus, trees, context="minoccur=2")


def test_delta_stats_account_for_mutations():
    engine = MiningEngine()
    corpus = VersionedCorpus(forest(6, 20), engine=engine, minoccur=1)
    stats = engine.stats
    assert stats.delta_updates == 0  # the initial load is not a delta
    corpus.add_trees(forest(2, 21))
    corpus.remove_trees([0])
    corpus.replace_trees({3: forest(1, 22)[0]})
    assert stats.delta_updates == 3
    assert stats.delta_trees_added == 3  # 2 added + 1 replacement arrival
    assert stats.delta_trees_removed == 2  # 1 removed + 1 replacement exit
    assert stats.delta_supports_patched > 0
    # Nothing distance-shaped was materialised, so no rows were patched.
    assert stats.delta_rows_patched == 0
    corpus.distance_matrix(DistanceMode.DIST)
    corpus.add_trees(forest(1, 23))
    assert stats.delta_rows_patched >= 1
    assert "delta: 4 update(s)" in stats.describe()


def test_mutation_rejects_bad_indexes_without_side_effects():
    from repro.errors import EngineError

    trees = forest(4, 40)
    corpus = VersionedCorpus(trees, minoccur=1)
    version = corpus.version
    with pytest.raises(EngineError):
        corpus.remove_trees([0, 4])
    with pytest.raises(EngineError):
        corpus.replace_trees({-1: forest(1, 41)[0]})
    assert corpus.version == version
    assert len(corpus) == 4
    assert_corpus_matches_remine(
        corpus, trees, context="after rejected mutations"
    )


def test_noop_mutations_do_not_bump_version():
    corpus = VersionedCorpus(forest(3, 50), minoccur=1)
    corpus.add_trees([])
    corpus.remove_trees([])
    corpus.replace_trees({})
    assert corpus.version == 0
    assert len(corpus.log()) == 1
