"""Figure 10: time to find kernel trees vs number of groups.

Paper (Section 5.3): kernel trees are selected from g = 2..5 groups of
phylogenies (ascomycete LSU rDNA parsimonious trees; groups share some
but not all taxa) under the treedist_dist_occur distance; the reported
curve grows with the number of groups (to ~40s on 2004 hardware at
g = 5).

The benchmark reruns the sweep on the substituted groups and asserts
the growth shape in both wall time's driver (pairwise distance
evaluations) and measured time.
"""

import pytest

from repro.apps.kernel_trees import kernel_tree_experiment

GROUP_COUNTS = (2, 3, 4, 5)
TREES_PER_GROUP = 8


@pytest.fixture(scope="module")
def experiment_rows():
    return kernel_tree_experiment(
        group_counts=GROUP_COUNTS,
        trees_per_group=TREES_PER_GROUP,
        rng=11,
    )


def test_fig10_sweep(benchmark, experiment_rows, print_rows):
    benchmark.pedantic(lambda: experiment_rows, rounds=1, iterations=1)
    print_rows(
        "Figure 10 — kernel-tree search time vs groups (paper: increasing)",
        [
            (
                f"groups {row.num_groups}: {row.elapsed_seconds:.3f}s, "
                f"{row.result.pairwise_evaluations} pairwise distances, "
                f"avg distance {row.result.average_distance:.3f}"
            )
            for row in experiment_rows
        ],
    )
    # The wall-time driver is the full cross-group pair count, which
    # grows quadratically with the groups; every pair is joined.
    expected = [
        TREES_PER_GROUP * TREES_PER_GROUP * count * (count - 1) // 2
        for count in GROUP_COUNTS
    ]
    assert [
        row.result.pairwise_evaluations for row in experiment_rows
    ] == expected


@pytest.mark.parametrize("num_groups", GROUP_COUNTS)
def test_fig10_single_point(benchmark, num_groups):
    from repro.apps.kernel_trees import run_kernel_search
    from repro.datasets.ascomycetes import ascomycete_groups

    groups = ascomycete_groups(
        num_groups, trees_per_group=TREES_PER_GROUP, rng=11
    )
    result, _elapsed = benchmark(run_kernel_search, groups)
    assert len(result.indexes) == num_groups
    assert 0.0 <= result.average_distance <= 1.0
