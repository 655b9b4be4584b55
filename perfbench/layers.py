"""Per-layer metrics from one traced in-process session.

Input: the finished span records of the traced run (benchmark spans
around each layer's public calls, with the program's own spans nested
under them), the registry the program counted into, the session's
samples, and a few values measured beside the trace.  Output: every
per-layer metric of ``BENCHMARK.json`` as ``name -> (value, unit)``.

Times named ``<span>_s`` are cumulative span durations; ``_self_s``
and the ``self.<layer>_s`` partition subtract child spans.  A metric
whose layer the workload never enters reads 0.  The partition
attributes each span's self time to the layer named before the first
dot of its span name; the benchmark's own ``bench.*`` roots and any
span outside the listed layers land in ``self.other_s``, so the
partition sums to ``trace.wall_s`` (the traced roots' wall-clock).
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.profile import build_profile

LAYERS = ("trees", "engine", "fastmine", "multi_tree", "cli", "distvec",
          "kernel", "topk", "store", "delta")


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(records, registry, samples, extra) -> dict:
    profile = build_profile(records)
    rows = {row.name: row for row in profile.rows}
    children = defaultdict(list)
    for record in records:
        children[record.parent_id].append(record)

    def cum(*names: str) -> float:
        return sum(rows[n].cum_seconds for n in names if n in rows)

    def self_time(name: str) -> float:
        return rows[name].self_seconds if name in rows else 0.0

    def minus_children(name: str, prefixes: tuple[str, ...]) -> float:
        """Durations of ``name`` spans minus their direct children
        whose names start with one of ``prefixes``."""
        total = 0.0
        for record in records:
            if record.name == name:
                total += record.seconds - sum(
                    child.seconds for child in children[record.span_id]
                    if child.name.startswith(prefixes)
                )
        return total

    def count(name: str) -> int:
        return registry.counter(name).value

    keys = count("fastmine.keys")
    lookups = count("engine.lookups")
    hits = count("engine.cache.memory_hits") + count("engine.cache.disk_hits")
    joined, pruned = count("distvec.pairs.joined"), count("distvec.pairs.pruned")
    evaluations, kernel_pruned = count("kernel.evaluations"), count("kernel.pruned")
    candidates = count("topk.candidates")
    patterns = samples.get("patterns", 0)
    untraced, session = extra["untraced_s"], extra["session_s"]
    cli_wall = extra["cli_wall_s"]
    store_trees = samples.get("store_trees", 0)

    metrics = {
        "trees.parse_s": (cum("trees.parse"), "s"),
        "trees.nodes": (samples.get("nodes", 0), "count"),
        "engine.lookup_s": (cum("engine.lookup"), "s"),
        "engine.mine_s": (cum("engine.mine"), "s"),
        "engine.cache_hit_frac": (_frac(hits, lookups), "ratio"),
        "fastmine.sweep_s": (cum("fastmine.sweep"), "s"),
        "fastmine.trees": (count("fastmine.trees"), "count"),
        "fastmine.nodes": (count("fastmine.nodes"), "count"),
        "fastmine.keys": (keys, "count"),
        "multi_tree.aggregate_s": (
            minus_children("multi_tree.mine_forest", ("engine.batch",)), "s"),
        "multi_tree.patterns": (patterns, "count"),
        "multi_tree.patterns_per_key": (_frac(patterns, keys), "ratio"),
        "cli.import_s": (extra["cli.import_s"], "s"),
        "cli.format_s": (cum("cli.format"), "s"),
        "cli.output_bytes": (samples.get("output_bytes", 0), "bytes"),
        "cli.unspanned_s": (
            cli_wall - extra["cli.import_s"] - untraced
            if cli_wall is not None else 0.0, "s"),
        "distvec.build_s": (cum("distvec.build"), "s"),
        "distvec.index_s": (cum("distvec.index"), "s"),
        "distvec.join_s": (cum("distvec.join", "distvec.row",
                               "distvec.triangle"), "s"),
        "distvec.joins": (count("distvec.joins") + joined, "count"),
        "distvec.pairs_pruned_frac": (
            _frac(pruned + kernel_pruned,
                  joined + pruned + evaluations + kernel_pruned), "ratio"),
        "kernel.search_self_s": (self_time("kernel.search"), "s"),
        "kernel.evaluations": (evaluations, "count"),
        "kernel.pruned_frac": (
            _frac(kernel_pruned, evaluations + kernel_pruned), "ratio"),
        "topk.sketch_s": (cum("topk.sketch"), "s"),
        "topk.search_s": (cum("topk.search"), "s"),
        "topk.exact_join_frac": (
            _frac(count("topk.exact_joins"), candidates), "ratio"),
        "topk.pruned_index_frac": (
            _frac(count("topk.pruned_index"), candidates), "ratio"),
        "topk.pruned_bound_frac": (
            _frac(count("topk.pruned_bound"), candidates), "ratio"),
        "store.pack_s": (cum("store.pack"), "s"),
        "store.open_s": (cum("store.open"), "s"),
        "store.frequent_pairs_s": (cum("store.frequent_pairs"), "s"),
        "store.apply_s": (cum("store.apply"), "s"),
        "store.append_s": (cum("store.append"), "s"),
        "store.compact_s": (cum("store.compact"), "s"),
        "store.generations_appended": (
            count("store.generations.appended"), "count"),
        "store.compactions": (count("store.compactions"), "count"),
        "store.bytes_per_tree": (
            _frac(extra.get("store_bytes", 0), store_trees), "bytes"),
        "store.read_errors": (count("store.read_errors"), "count"),
        "store.rebuilds": (count("store.rebuilds"), "count"),
        "delta.update_self_s": (
            minus_children("delta.update", ("engine.", "store.")), "s"),
        "distvec.rows_appended": (count("distvec.rows.appended"), "count"),
        "distvec.rows_removed": (count("distvec.rows.removed"), "count"),
        "obs.spans": (profile.span_count, "count"),
        "obs.trace_overhead_frac": (_frac(session - untraced, untraced),
                                    "ratio"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for row in profile.rows:
        layer = row.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += row.self_seconds
    for layer, seconds in layer_self.items():
        metrics[f"self.{layer}_s"] = (seconds, "s")
    metrics["self.other_s"] = (
        profile.total_seconds - sum(layer_self.values()), "s")
    metrics["trace.wall_s"] = (profile.total_seconds, "s")
    return metrics
