"""Every engine-routed consumer must equal its serial reference path."""

from __future__ import annotations

from repro.apps.clustering import cluster_trees
from repro.apps.cooccurrence import find_cooccurring_patterns
from repro.core.distance import distance_matrix
from repro.engine import MiningEngine


def make_engine(jobs):
    return MiningEngine(jobs=jobs)


class TestDistanceMatrix:
    def test_matrix_identical(self, forest, jobs):
        serial = distance_matrix(forest, mode="dist_occur")
        engined = distance_matrix(
            forest, mode="dist_occur", engine=make_engine(jobs)
        )
        assert engined == serial

    def test_matrix_identical_across_modes(self, forest, jobs):
        for mode in ("plain", "dist", "occur"):
            assert distance_matrix(
                forest, mode=mode, engine=make_engine(jobs)
            ) == distance_matrix(forest, mode=mode)


class TestClustering:
    def test_clusters_medoids_matrix_identical(self, forest, jobs):
        serial = cluster_trees(forest, k=3)
        engined = cluster_trees(forest, k=3, engine=make_engine(jobs))
        assert engined == serial  # frozen dataclass: full comparison

    def test_linkages(self, forest, jobs):
        for linkage in ("single", "complete"):
            assert cluster_trees(
                forest, k=2, linkage=linkage, engine=make_engine(jobs)
            ) == cluster_trees(forest, k=2, linkage=linkage)


class TestCooccurrence:
    def test_report_identical(self, forest, jobs):
        serial = find_cooccurring_patterns(forest, minsup=2)
        engined = find_cooccurring_patterns(
            forest, minsup=2, engine=make_engine(jobs)
        )
        assert engined.patterns == serial.patterns
        assert engined.occurrences == serial.occurrences
        assert engined.describe() == serial.describe()


class TestArenaInputs:
    """Arenas stand in for pointer trees on the engine and serial paths:
    per-tree arenas from the reader, and arenas on one shared table."""

    @staticmethod
    def _inputs(forest):
        from repro.trees.arena import TreeArena, forest_arenas
        from repro.trees.newick import parse_arenas, write_newick

        read = parse_arenas("".join(write_newick(tree) for tree in forest))
        flattened = [TreeArena.from_tree(tree) for tree in forest]
        _table, shared = forest_arenas(forest)
        return [read, flattened, shared]

    def test_mining_entry_points_accept_arenas(self, forest, jobs):
        from repro.core.distance import tree_distance
        from repro.core.distvec import DistanceVectors
        from repro.core.kernel import find_kernel_trees
        from repro.core.multi_tree import mine_forest
        from repro.core.topk import topk_similar

        def results(trees, engine):
            groups = [trees[:3], trees[3:]]
            kernel = find_kernel_trees(groups, engine=engine)
            vectors = DistanceVectors.from_trees(trees, engine=engine)
            return (
                mine_forest(trees, minsup=2, engine=engine),
                (kernel.indexes, kernel.average_distance),
                vectors.matrix("dist_occur"),
                tree_distance(trees[0], trees[3], engine=engine),
                topk_similar(vectors, trees[1], 3).neighbors,
            )

        expected = results(forest, None)
        engine = make_engine(jobs)
        assert results(forest, engine) == expected
        for arenas in self._inputs(forest):
            assert results(arenas, None) == expected
            # One engine serves every input kind: an arena on a
            # shared table must not disagree with a per-tree one.
            assert results(arenas, engine) == expected
