"""Engine distance-kernel paths: matrices, fresh vectors and stats."""

from __future__ import annotations

import functools

import pytest

from repro.core.distance import DistanceMode, distance_matrix
from repro.core.distvec import DistanceVectors
from repro.core.kernel import find_kernel_trees
from repro.engine import MiningEngine, VersionedCorpus


class TestDistanceVectors:
    def test_engine_vectors_equal_serial_vectors(self, forest, jobs):
        engine = MiningEngine(jobs=jobs)
        serial = DistanceVectors.from_trees(forest)
        engined = engine.distance_vectors(forest)
        for mode in DistanceMode:
            assert engined.matrix(mode) == serial.matrix(mode)

    def test_minoccur_vectors_equal_serial_vectors(self, forest):
        engine = MiningEngine(jobs=1)
        strict = engine.distance_vectors(forest, minoccur=2)
        serial = DistanceVectors.from_trees(forest, minoccur=2)
        for mode in DistanceMode:
            assert strict.matrix(mode) == serial.matrix(mode)

    @pytest.mark.parametrize("source", ["trees", "store"])
    def test_mutating_returned_vectors_never_leaks(
        self, forest, tmp_path, source
    ):
        # The returned vectors are the caller's: patching them in place
        # must not change what a later call over the same forest sees.
        engine = MiningEngine(jobs=1)
        build = functools.partial(engine.distance_vectors, forest)
        if source == "store":
            VersionedCorpus(forest).pack_store(str(tmp_path / "store"))
            engine.open_store(str(tmp_path / "store"))
            build = engine.store_vectors
        vectors = build()
        vectors.append_packed(engine.packed_counts(forest[:1])[1])
        vectors.remove_rows([0, 1])
        again = build()
        assert len(again) == len(forest)
        serial = DistanceVectors.from_trees(forest)
        for mode in DistanceMode:
            assert again.matrix(mode) == serial.matrix(mode)


class TestDistanceMatrixTiles:
    def test_serial_engine_uses_one_tile(self, forest):
        # A matrix is one triangle pass, whatever jobs= says.
        engine = MiningEngine(jobs=4)
        assert distance_matrix(forest, engine=engine) == distance_matrix(
            forest
        )
        triangles = engine.registry.histogram("distvec.triangle.seconds")
        assert triangles.count == 1
        assert engine.stats.distance_builds == 2  # vectors + matrix

    def test_repeat_matrices_equal_and_independent(self, forest):
        engine = MiningEngine(jobs=1)
        first = distance_matrix(forest, engine=engine)
        second = distance_matrix(forest, engine=engine)
        assert second == first
        # Returned rows are the caller's: mutating one never leaks.
        second[0][1] = 99.0
        assert distance_matrix(forest, engine=engine) == first

    def test_pair_accounting_covers_triangle(self, forest):
        engine = MiningEngine(jobs=1)
        distance_matrix(forest, engine=engine)
        size = len(forest)
        assert (
            engine.stats.distance_pairs_computed
            + engine.stats.distance_pairs_pruned
            == size * (size - 1) // 2
        )


class TestKernelEnginePath:
    def test_engine_kernel_equals_serial(self, forest, jobs):
        groups = [forest[:3], forest[3:6], forest[6:]]
        serial = find_kernel_trees(groups)
        engine = MiningEngine(jobs=jobs)
        engined = find_kernel_trees(groups, engine=engine)
        assert engined.indexes == serial.indexes
        assert engined.average_distance == serial.average_distance
        assert engined.pairwise_evaluations == serial.pairwise_evaluations

    def test_kernel_updates_engine_stats(self, forest):
        groups = [forest[:3], forest[3:6], forest[6:]]
        engine = MiningEngine(jobs=1)
        result = find_kernel_trees(groups, engine=engine)
        assert (
            engine.stats.distance_pairs_computed
            == result.pairwise_evaluations
        )
        assert "distance:" in engine.stats.describe()
