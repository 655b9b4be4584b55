"""End-to-end application workflows (Section 5 of the paper).

- :mod:`repro.apps.cooccurrence` — discover co-occurring cousin pairs
  in multiple phylogenies (Section 5.1, Figure 8);
- :mod:`repro.apps.consensus_quality` — score the five consensus
  methods over sets of equally parsimonious trees (Section 5.2,
  Figure 9);
- :mod:`repro.apps.kernel_trees` — select kernel trees across groups
  of phylogenies (Section 5.3, Figure 10).
"""

from repro.apps.cooccurrence import CooccurrenceReport, find_cooccurring_patterns
from repro.apps.consensus_quality import (
    ConsensusQualityRow,
    consensus_quality_table,
)
from repro.apps.kernel_trees import KernelExperimentRow, kernel_tree_experiment
from repro.apps.clustering import ClusteringResult, cluster_trees, cluster_consensus
from repro.apps.supertree import SupertreeResult, build_supertree
from repro.apps.diff import PatternDiff, diff_patterns, diff_forests

__all__ = [
    "CooccurrenceReport",
    "find_cooccurring_patterns",
    "ConsensusQualityRow",
    "consensus_quality_table",
    "KernelExperimentRow",
    "kernel_tree_experiment",
    "ClusteringResult",
    "cluster_trees",
    "cluster_consensus",
    "SupertreeResult",
    "build_supertree",
    "PatternDiff",
    "diff_patterns",
    "diff_forests",
]
