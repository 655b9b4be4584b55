"""Tracing the kernel-tree search: one block span per group pair.

The search reads precomputed cross-group blocks, so a traced run
records no per-pair join span or counter, and its distance and search
spans do not grow with the group sizes.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.kernel import find_kernel_trees
from repro.obs.context import scope
from repro.obs.trace import Tracer

from tests.conftest import make_random_tree


def traced_kernel(rng, trees_per_group):
    groups = [
        [make_random_tree(rng, max_size=12) for _ in range(trees_per_group)]
        for _ in range(3)
    ]
    tracer = Tracer()
    with scope(tracer=tracer) as (registry, _tracer):
        find_kernel_trees(groups)
    return Counter(record.name for record in tracer.records), registry


@pytest.mark.parametrize("trees_per_group", [3, 8])
def test_no_per_pair_joins(rng, trees_per_group):
    spans, registry = traced_kernel(rng, trees_per_group)
    assert spans["distvec.join"] == 0
    assert registry.counter("distvec.joins").value == 0
    assert registry.counter("distvec.bounds").value == 0


def test_one_block_span_per_group_pair(rng):
    small, _registry = traced_kernel(rng, 3)
    large, _registry = traced_kernel(rng, 8)
    assert small["distvec.block"] == large["distvec.block"] == 3
    # Per-tree mining spans scale with the trees; the distance and
    # search spans do not.
    assert search_spans(small) == search_spans(large)


def search_spans(spans):
    return {
        name: count
        for name, count in spans.items()
        if name.startswith(("distvec.", "kernel."))
    }
