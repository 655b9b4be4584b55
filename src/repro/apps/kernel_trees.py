"""Kernel-tree experiment (Section 5.3, Figure 10).

For ``g`` = 2..5 groups of phylogenies with overlapping (but unequal)
taxon sets, select one kernel tree per group minimising the average
pairwise cousin-based distance, and record the wall time — the paper's
Figure 10 plots that time against ``g``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.params import DistanceMode
from repro.core.kernel import KernelResult, find_kernel_trees
from repro.datasets.ascomycetes import ascomycete_groups
from repro.obs.metrics import stopwatch
from repro.trees.tree import Tree

__all__ = ["KernelExperimentRow", "kernel_tree_experiment", "run_kernel_search"]


@dataclass(frozen=True)
class KernelExperimentRow:
    """One Figure 10 data point."""

    num_groups: int
    trees_per_group: int
    elapsed_seconds: float
    result: KernelResult


def run_kernel_search(
    groups: Sequence[Sequence[Tree]],
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    maxdist: float = 1.5,
) -> tuple[KernelResult, float]:
    """Time one kernel-tree selection; returns (result, seconds)."""
    with stopwatch() as watch:
        result = find_kernel_trees(groups, mode=mode, maxdist=maxdist)
    return result, watch.seconds


def kernel_tree_experiment(
    group_counts: Sequence[int] = (2, 3, 4, 5),
    trees_per_group: int = 6,
    rng: random.Random | int | None = None,
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    method: str = "perturb",
) -> list[KernelExperimentRow]:
    """Reproduce the Figure 10 sweep on the ascomycete substitute data.

    The expected shape: elapsed time grows with the number of groups
    (the number of cross-group tree pairs grows quadratically in ``g``
    and the combination space exponentially, though branch-and-bound
    keeps the latter mild at these sizes).
    """
    generator = (
        rng if isinstance(rng, random.Random) else random.Random(rng)
    )
    rows: list[KernelExperimentRow] = []
    for count in group_counts:
        groups = ascomycete_groups(
            count,
            trees_per_group=trees_per_group,
            rng=generator,
            method=method,
        )
        result, elapsed = run_kernel_search(groups, mode=mode)
        rows.append(
            KernelExperimentRow(
                num_groups=count,
                trees_per_group=trees_per_group,
                elapsed_seconds=elapsed,
                result=result,
            )
        )
    return rows
