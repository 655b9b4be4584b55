"""Property-based tests for the consensus methods."""

from hypothesis import example, given, settings

from repro.consensus import (
    adams_consensus,
    majority_consensus,
    nelson_consensus,
    semistrict_consensus,
    strict_consensus,
)
from repro.trees.bipartition import (
    all_compatible,
    cluster_counts,
    compatible,
    nontrivial_clusters,
    robinson_foulds,
)
from repro.trees.newick import parse_newick
from repro.trees.validate import check_tree, is_leaf_labeled

from tests.property.strategies import leaf_labeled_trees, same_taxa_profiles

ALL_METHODS = [
    strict_consensus,
    majority_consensus,
    semistrict_consensus,
    adams_consensus,
    nelson_consensus,
]


@settings(max_examples=40, deadline=None)
@given(profile=same_taxa_profiles())
def test_every_method_produces_a_valid_phylogeny(profile):
    taxa = profile[0].leaf_labels()
    for method in ALL_METHODS:
        result = method(profile)
        check_tree(result)
        assert is_leaf_labeled(result)
        assert result.leaf_labels() == taxa
        assert all_compatible(nontrivial_clusters(result))


@settings(max_examples=40, deadline=None)
@given(tree=leaf_labeled_trees())
def test_unanimous_profile_is_fixed_point(tree):
    """Consensus of copies of one tree is that tree (all methods)."""
    profile = [tree, tree, tree]
    for method in ALL_METHODS:
        assert robinson_foulds(method(profile), tree) == 0.0


@settings(max_examples=40, deadline=None)
@given(profile=same_taxa_profiles(min_trees=2))
def test_inclusion_chain(profile):
    """strict <= majority and strict <= semistrict (cluster sets)."""
    strict = nontrivial_clusters(strict_consensus(profile))
    majority = nontrivial_clusters(majority_consensus(profile))
    semi = nontrivial_clusters(semistrict_consensus(profile))
    assert strict <= majority
    assert strict <= semi


def heaviest_compatible_weight(counts):
    """Brute force: the largest total replication of any set of
    pairwise-compatible clusters, each such set visited once."""
    clusters = sorted(counts, key=lambda cluster: (len(cluster), sorted(cluster)))
    best = 0
    stack = [(0, 0, ())]
    while stack:
        start, weight, chosen = stack.pop()
        best = max(best, weight)
        for index in range(start, len(clusters)):
            cluster = clusters[index]
            if all(compatible(cluster, other) for other in chosen):
                stack.append(
                    (index + 1, weight + counts[cluster], (*chosen, cluster))
                )
    return best


# Two compatible sets reach the maximum weight 8 here, and the one
# Nelson's method returns lacks the majority clusters {t0,t1} and
# {t2,t3}: majority clusters need not join a heaviest clique.
TIED_PROFILE = [
    parse_newick(text)
    for text in (
        "((t2,t3),((t4,t5),(t0,t1)));",
        "((t1,t2),(t3,(t5,(t0,t4))));",
        "((t1,t2),(t3,(t5,(t0,t4))));",
        "((t0,t1),((t5,(t2,t3)),t4));",
        "(((t2,t3),t4),(t5,(t0,t1)));",
    )
]


@settings(max_examples=40, deadline=None)
@given(profile=same_taxa_profiles(min_trees=2))
@example(profile=TIED_PROFILE)
def test_nelson_weight_is_the_compatible_maximum(profile):
    """Nelson's clusters weigh as much as the heaviest compatible set
    (exhaustive search), so at least as much as the majority set."""
    counts = cluster_counts(profile)

    def weight(tree):
        return sum(counts[cluster] for cluster in nontrivial_clusters(tree))

    nelson = weight(nelson_consensus(profile))
    assert nelson == heaviest_compatible_weight(counts)
    assert nelson >= weight(majority_consensus(profile))


@settings(max_examples=40, deadline=None)
@given(profile=same_taxa_profiles(min_trees=2))
def test_profile_order_irrelevant(profile):
    """Consensus is a function of the multiset of input trees."""
    reversed_profile = list(reversed(profile))
    for method in ALL_METHODS:
        forward = method(profile)
        backward = method(reversed_profile)
        assert robinson_foulds(forward, backward) == 0.0


@settings(max_examples=30, deadline=None)
@given(profile=same_taxa_profiles(min_trees=2))
def test_strict_clusters_occur_in_every_tree(profile):
    per_tree = [nontrivial_clusters(tree) for tree in profile]
    for cluster in nontrivial_clusters(strict_consensus(profile)):
        assert all(cluster in clusters for clusters in per_tree)
