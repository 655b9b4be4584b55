"""Tracing must not change results, and must stay cheap.

Three guarantees:

- **Differential**: a mining/distance run with tracing enabled is
  byte-identical to the same run with tracing disabled — spans observe,
  never steer.
- **Overhead gate**: the disabled-tracer span path costs under 5% of a
  smoke ``mine_forest`` run.  The gate multiplies the *measured*
  per-span cost of the disabled path by the span count an enabled run
  actually produces, which keeps the assertion robust on noisy CI
  boxes (the two measurements are each best-of-N tight loops, not one
  racy subtraction of two full runs).
- **Enabled-tracer gate**: with tracing on, the smoke ``mine_forest``
  and a small 3-group ``find_kernel_trees`` run take at most 10% more
  wall-clock than with tracing off (min of 5 runs per side).
"""

from __future__ import annotations

import gc
import json
import random
import time

from repro.core.distance import DistanceMode, distance_matrix
from repro.core.kernel import find_kernel_trees
from repro.core.multi_tree import mine_forest
from repro.engine import MiningEngine
from repro.generate.phylo import random_nni, yule_tree
from repro.generate.random_trees import SyntheticTreeParams, synthetic_forest
from repro.obs.context import scope
from repro.obs.metrics import MetricsRegistry, stopwatch
from repro.obs.trace import Tracer

TREES = 60
TREESIZE = 25


def make_forest():
    params = SyntheticTreeParams(
        treesize=TREESIZE, databasesize=TREES, fanout=4, alphabetsize=40
    )
    return synthetic_forest(params, random.Random(71))


def strict(patterns):
    return [
        (p.label_a, p.label_b, p.distance, p.support, p.tree_indexes,
         p.total_occurrences)
        for p in patterns
    ]


def traced_engine():
    registry = MetricsRegistry()
    return MiningEngine(
        jobs=1, registry=registry, tracer=Tracer(registry)
    )


class TestDifferential:
    def test_mine_forest_byte_identical_tracing_on_and_off(self):
        forest = make_forest()
        plain = mine_forest(forest, engine=MiningEngine(jobs=1))
        traced = mine_forest(forest, engine=traced_engine())
        assert (
            json.dumps(strict(traced)).encode("utf-8")
            == json.dumps(strict(plain)).encode("utf-8")
        )

    def test_distance_matrix_byte_identical_tracing_on_and_off(self):
        forest = make_forest()[:12]
        plain = distance_matrix(
            forest, mode=DistanceMode.DIST_OCCUR, engine=MiningEngine(jobs=1)
        )
        traced = distance_matrix(
            forest, mode=DistanceMode.DIST_OCCUR, engine=traced_engine()
        )
        assert (
            json.dumps(traced).encode("utf-8")
            == json.dumps(plain).encode("utf-8")
        )


class TestOverheadGate:
    def test_noop_span_overhead_under_5_percent(self):
        forest = make_forest()
        # Baseline: the untraced smoke run (best of 3 to cut noise).
        baseline = float("inf")
        for _ in range(3):
            with stopwatch() as watch:
                mine_forest(forest, engine=MiningEngine(jobs=1))
            baseline = min(baseline, watch.seconds)

        # How many spans would that run execute if traced?
        engine = traced_engine()
        mine_forest(forest, engine=engine)
        names = [record.name for record in engine.tracer.records]
        span_count = len(names)
        # Every layer the run crosses is spanned; the kernel once per
        # mined batch, however many trees the batch holds.
        assert {"engine.batch", "engine.mine"} <= set(names)
        assert names.count("fastmine.sweep") == names.count("engine.mine")

        # Per-span cost of the *disabled* path, worst case: a
        # metric-bearing span still pays a registry Timer.
        disabled = Tracer(MetricsRegistry(), enabled=False)
        rounds = 2000
        per_span = float("inf")
        for _ in range(3):
            with stopwatch() as watch:
                for _ in range(rounds):
                    with disabled.span("x", metric="x.seconds"):
                        pass
            per_span = min(per_span, watch.seconds / rounds)

        overhead = span_count * per_span
        assert overhead < 0.05 * baseline, (
            f"{span_count} no-op spans x {per_span:.2e}s = {overhead:.6f}s "
            f"is not < 5% of the {baseline:.6f}s smoke run"
        )


def make_groups():
    """Three groups of 10 NNI neighbours of one 30-taxon Yule tree each."""
    rng = random.Random(73)
    taxa = [f"t{index}" for index in range(30)]
    groups = []
    for _ in range(3):
        base = yule_tree(taxa, rng)
        groups.append([random_nni(base, rng) for _ in range(10)])
    return groups


def run_seconds(workload, enabled):
    """Wall-clock of ``workload(engine)`` on a cold engine, CLI-style.

    The registry/tracer pair is installed as the ambient scope, as
    ``repro-mine`` does, so every span of the run is recorded when
    ``enabled``.  Collection is paused so a GC pass cannot land on one
    side only.
    """
    registry = MetricsRegistry()
    tracer = Tracer(registry, enabled=enabled)
    engine = MiningEngine(registry=registry, tracer=tracer)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        with scope(registry, tracer):
            workload(engine)
        return time.perf_counter() - start
    finally:
        gc.enable()


def enabled_ratio(workload, runs=5):
    """Min-of-``runs`` traced over min-of-``runs`` untraced wall-clock.

    Runs alternate between the two sides so host load drifts evenly.
    """
    off = on = float("inf")
    for index in range(runs):
        sides = (False, True) if index % 2 == 0 else (True, False)
        for enabled in sides:
            seconds = run_seconds(workload, enabled)
            if enabled:
                on = min(on, seconds)
            else:
                off = min(off, seconds)
    return on / off


class TestEnabledOverheadGate:
    BOUND = 1.10
    # On a shared host the machine's speed can shift between the two
    # sides of one measurement; a real regression fails every attempt.
    ATTEMPTS = 3

    def assert_cheap(self, workload):
        ratios = []
        for _ in range(self.ATTEMPTS):
            ratios.append(enabled_ratio(workload))
            if ratios[-1] <= self.BOUND:
                return
        raise AssertionError(
            f"traced/untraced wall-clock {ratios} exceeds {self.BOUND}"
        )

    def test_mine_forest_traced_within_10_percent(self):
        forest = make_forest()
        self.assert_cheap(lambda engine: mine_forest(forest, engine=engine))

    def test_kernel_search_traced_within_10_percent(self):
        groups = make_groups()
        self.assert_cheap(
            lambda engine: find_kernel_trees(groups, engine=engine)
        )
