"""Byte-identity of store-served results against in-RAM computation.

The contract: pack a forest into a :class:`repro.store.PairStore`,
reopen it, and every query — frequent pairs across minsup and
ignore-distance, all four :class:`DistanceMode` matrices, top-k
neighbours — must equal the in-RAM oracle exactly (same float bits,
same ordering, the non-compared ``FrequentCousinPair`` fields
included), while the row data stays memory-mapped.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.params import MiningParams
from repro.core.reference import mine_forest_reference
from repro.core.params import MiningParams
from repro.core.topk import topk_similar
from repro.generate import SyntheticTreeParams, synthetic_forest
from repro.obs.context import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate
from repro.store import STORE_FILE, PairStore

from tests.delta.equivalence import MINSUPS, pattern_tuples

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "schemas", "store.schema.json"
)


def forest(count=12, seed=3, alphabetsize=8):
    return synthetic_forest(
        SyntheticTreeParams(
            treesize=14, databasesize=count, alphabetsize=alphabetsize
        ),
        rng=seed,
    )


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    with obs_scope(registry=reg):
        yield reg


@pytest.fixture
def packed_store(tmp_path, registry):
    trees = forest()
    PairStore.pack(str(tmp_path / "store"), trees)
    store = PairStore.open(str(tmp_path / "store"))
    return trees, store


class TestFrequentPairs:
    def test_matches_mine_forest(self, packed_store, tmp_path):
        trees, store = packed_store
        for minsup in MINSUPS:
            for ignore_distance in (False, True):
                got = store.frequent_pairs(
                    minsup=minsup, ignore_distance=ignore_distance
                )
                want = mine_forest_reference(
                    trees, minsup=minsup, ignore_distance=ignore_distance
                )
                assert pattern_tuples(got) == pattern_tuples(want)
        # Stores packed with a minoccur: 2 filters after summing across
        # distances when they are ignored; 10**6 masks every count.
        for minoccur in (2, 10**6):
            directory = str(tmp_path / f"minoccur{minoccur}")
            PairStore.pack(directory, trees, MiningParams(minoccur=minoccur))
            strict = PairStore.open(directory)
            for minsup in (1, 2, len(trees) + 1):
                for ignore_distance in (False, True):
                    got = strict.frequent_pairs(
                        minsup=minsup, ignore_distance=ignore_distance
                    )
                    want = mine_forest_reference(
                        trees,
                        minoccur=minoccur,
                        minsup=minsup,
                        ignore_distance=ignore_distance,
                    )
                    assert pattern_tuples(got) == pattern_tuples(want)

    def test_counters_land(self, packed_store, registry):
        _, store = packed_store
        store.frequent_pairs(minsup=2)
        counters = registry.snapshot()["counters"]
        assert counters["store.frequent_pairs"] == 1
        assert counters["store.opens"] == 1
        assert counters["store.packs"] == 1


def mmap_backed(array):
    """True when ``array`` is a zero-copy view over an ``np.memmap``."""
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = base.base
    return False


class TestVectors:
    def test_rows_are_memmapped(self, packed_store):
        _, store = packed_store
        vectors = store.as_vectors()
        assert mmap_backed(vectors._full_keys[0])
        assert mmap_backed(vectors._full_counts[0])

    def test_matrices_match_from_trees(self, packed_store):
        trees, store = packed_store
        reference = DistanceVectors.from_trees(trees)
        vectors = store.as_vectors()
        for mode in DistanceMode:
            assert np.array_equal(
                np.asarray(vectors.matrix(mode)),
                np.asarray(reference.matrix(mode)),
            )

    def test_pairwise_distance_matches(self, packed_store):
        trees, store = packed_store
        reference = DistanceVectors.from_trees(trees)
        vectors = store.as_vectors()
        assert vectors.distance(0, 5) == reference.distance(0, 5)

    def test_topk_matches(self, packed_store):
        trees, store = packed_store
        query = forest(count=1, seed=99)[0]
        vectors = store.as_vectors()
        reference = DistanceVectors.from_trees(trees)
        got = topk_similar(vectors, query, 5)
        want = topk_similar(reference, query, 5)
        assert got.neighbors == want.neighbors

    def test_minoccur_filter_matches_fresh_build(self, packed_store):
        trees, store = packed_store
        vectors = store.as_vectors(minoccur=2)
        reference = DistanceVectors.from_trees(trees, minoccur=2)
        for mode in DistanceMode:
            assert np.array_equal(
                np.asarray(vectors.matrix(mode)),
                np.asarray(reference.matrix(mode)),
            )

    def test_from_store_dispatch(self, packed_store):
        _, store = packed_store
        vectors = DistanceVectors.from_store(store)
        assert vectors.fingerprint == store.vectors_fingerprint(
            store.params.minoccur
        )


class TestManifest:
    def test_validates_against_schema(self, packed_store):
        _, store = packed_store
        with open(os.path.join(store.directory, STORE_FILE)) as handle:
            manifest = json.load(handle)
        with open(SCHEMA_PATH) as handle:
            schema = json.load(handle)
        assert validate(manifest, schema) == []

    def test_names_and_members_round_trip(self, tmp_path, registry):
        trees = forest(count=4)
        names = [f"taxon-{index}" for index in range(len(trees))]
        PairStore.pack(str(tmp_path / "s"), trees, names=names)
        store = PairStore.open(str(tmp_path / "s"))
        assert store.names == names
        assert [uid for uid, _ in store.members] == [0, 1, 2, 3]

    def test_params_mismatch_is_rejected(self, packed_store):
        _, store = packed_store
        other = MiningParams(
            maxdist=2.5,
            minoccur=1,
            minsup=1,
            max_generation_gap=1,
            max_height=None,
        )
        from repro.errors import StoreError

        with pytest.raises(StoreError, match="parameters"):
            store.check_params(other)


class TestVersioning:
    def test_append_then_reopen_matches_remine(self, tmp_path, registry):
        trees = forest(count=8, seed=5)
        extra = forest(count=3, seed=6)
        store = PairStore.pack(str(tmp_path / "s"), trees)
        from repro.engine import MiningEngine

        keys, packed = MiningEngine().packed_counts(
            list(trees) + list(extra), store.params
        )
        members = [(index, key) for index, key in enumerate(keys)]
        store.apply(members, dict(enumerate(packed)), version=1)
        reopened = PairStore.open(str(tmp_path / "s"))
        assert reopened.version == 1
        combined = list(trees) + list(extra)
        for minsup in MINSUPS:
            got = reopened.frequent_pairs(minsup=minsup)
            want = mine_forest_reference(combined, minsup=minsup)
            assert pattern_tuples(got) == pattern_tuples(want)
