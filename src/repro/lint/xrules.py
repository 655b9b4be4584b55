"""The ``RPL1xx`` whole-program rules.

Per-file rules (:mod:`repro.lint.rules`) check what a single module
can prove about itself.  These rules run in phase 2 against the
assembled :class:`repro.lint.project.ProjectContext` and check the
*cross-module* invariants the repo's guarantees rest on: ``engine=``
threading through call chains (RPL101), pool-worker purity (RPL102),
memo-key completeness (RPL103), memo-invalidation coverage (RPL104),
and allocation churn in the hot kernels (RPL105).

Every rule is conservative by construction: a call the resolver
cannot pin to a project function is never flagged, so new code pays
no false-positive tax for dynamic dispatch the analysis cannot see.
Findings are suppressed the same way as per-file ones — line pragmas
and ``skip-file`` recorded in each module summary apply.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.lint.analyzer import Finding

__all__ = ["ProjectRule", "PROJECT_RULES"]

# Method names too generic for the unique-method fallback resolver:
# an attribute call like ``rows.sort()`` must never resolve to some
# project class that happens to define the name.
_GENERIC_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "copy",
        "extend",
        "get",
        "items",
        "join",
        "keys",
        "pop",
        "popitem",
        "remove",
        "sort",
        "split",
        "update",
        "values",
        "write",
    }
)


class ProjectRule:
    """One whole-program rule: an id, a scope, and a check over the world.

    ``scope`` holds module-key prefixes (``repro/engine/`` style, as
    in :meth:`repro.lint.analyzer.ModuleContext.in_package`); empty
    means every module.  ``check`` yields :class:`Finding` records —
    the driver applies pragma suppression afterwards.
    """

    id = "RPL000"
    name = "base"
    summary = ""
    scope: tuple[str, ...] = ()

    def in_scope(self, summary: dict) -> bool:
        if not self.scope:
            return True
        key = summary["module"]
        return any(key == p or key.startswith(p) for p in self.scope)

    def modules(self, context) -> Iterator[dict]:
        for summary in context.summaries:
            if summary["skip_file"] or not self.in_scope(summary):
                continue
            yield summary

    def check(self, context) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, summary: dict, line: int, col: int, message: str) -> Finding:
        return Finding(summary["path"], line, col, self.id, message)


def _resolve_guarded(context, summary: dict, caller: dict, callee: str):
    """The shared resolver, minus too-generic unique-method matches."""
    leaf = callee.split(".")[-1]
    if "." in callee and leaf in _GENERIC_METHODS:
        # Still allow the precise forms (self.x / Class.x / import);
        # only the anything-goes fallback is too eager for these.
        resolved = context.resolve_call(summary, caller, callee)
        if resolved is not None:
            root = callee.split(".")[0]
            if root in ("self", "cls") or root in summary["imports"] or (
                root in summary["classes"]
            ):
                return resolved
        return None
    return context.resolve_call(summary, caller, callee)


class EngineThreadingRule(ProjectRule):
    """RPL101: a function taking ``engine=`` must forward it.

    The engine exists so every layer above it shares one
    content-addressed cache; a wrapper that accepts ``engine=`` but
    calls an engine-capable callee without passing it on silently
    rebuilds the world from scratch — results stay correct, the
    memoisation guarantee quietly dies.  Flags each call from an
    ``engine=``-accepting function to a resolvable project function
    that also accepts ``engine=`` but receives neither an ``engine``
    keyword, an ``engine`` positional, nor a ``**kwargs`` splat.
    Calls *on* the engine object itself are exempt — dispatching to
    the engine is the whole point of holding one.
    """

    id = "RPL101"
    name = "engine-threading"
    summary = "engine=-accepting function must forward engine to engine-capable callees"
    scope = ("repro/",)

    def check(self, context) -> Iterable[Finding]:
        for summary in self.modules(context):
            for slot, caller in summary["functions"].items():
                if not caller["has_engine"]:
                    continue
                for call in caller["calls"]:
                    root = call["callee"].split(".")[0]
                    if root == "engine":
                        continue
                    if (
                        "engine" in call["kwargs"]
                        or call["star_kwargs"]
                        or "engine" in call["arg_names"]
                    ):
                        continue
                    resolved = _resolve_guarded(
                        context, summary, caller, call["callee"]
                    )
                    if resolved is None:
                        continue
                    module, qualname, callee = resolved
                    if not callee["has_engine"]:
                        continue
                    if module == summary["dotted"] and qualname == slot:
                        continue
                    yield self.finding(
                        summary,
                        call["line"],
                        call["col"],
                        f"'{caller['qualname']}' takes engine= but calls "
                        f"engine-capable '{module}.{qualname}' without "
                        "forwarding it",
                    )


class PoolPurityRule(ProjectRule):
    """RPL102: executor payloads must be module-level and scope-clean.

    A ``ProcessPoolExecutor`` payload crosses a pickle boundary into a
    process whose ambient :mod:`repro.obs` context is fork-inherited
    junk: metrics counted into it are silently double-merged when the
    snapshot ships home.  So every submitted callable must resolve to
    a module-level function, and if anything *reachable* from it reads
    the ambient registry or tracer (``get_registry`` /
    ``get_tracer`` / ``global_registry``), the payload itself must
    install a fresh scope (``with scope(...)``) first.
    """

    id = "RPL102"
    name = "pool-purity"
    summary = "pool payloads must be module-level and install a fresh obs scope"
    scope = ("repro/",)

    def check(self, context) -> Iterable[Finding]:
        for summary in self.modules(context):
            for submission in summary["pool_submissions"]:
                payload = submission["payload"]
                if payload is None:
                    continue
                caller = summary["functions"].get(submission["function"])
                if caller is None:
                    continue
                resolved = context.resolve_call(summary, caller, payload)
                if resolved is None:
                    continue
                module, qualname, entry = resolved
                if entry["class"] is not None or entry["nested"]:
                    yield self.finding(
                        summary,
                        submission["line"],
                        submission["col"],
                        f"pool.{submission['method']} payload "
                        f"'{payload}' is not a module-level function",
                    )
                    continue
                reachable = context.reachable_from(module, qualname)
                tainted = [
                    f"{mod}.{name}"
                    for mod, name, fn in reachable
                    if fn["reads_obs"]
                ]
                if tainted and not entry["installs_scope"]:
                    yield self.finding(
                        summary,
                        submission["line"],
                        submission["col"],
                        f"pool.{submission['method']} payload "
                        f"'{payload}' reaches ambient obs context "
                        f"(via {tainted[0]}) without installing a "
                        "fresh scope",
                    )


class MemoKeyCompletenessRule(ProjectRule):
    """RPL103: engine memo keys must mention what the build reads.

    A memo entry keyed by less than the computation consumes serves
    stale values the moment the omitted input changes — the bug class
    that silently breaks byte-identical incremental results.  For the
    ``self._projection((key...), data, params, builder)`` form, every
    attribute the builder reads off its parameter objects (beyond the
    packed-data first argument) must appear in the key tuple; for
    direct ``self._projections[key] = value`` stores, every parameter
    the enclosing function reads must contribute to the key.  Keys
    that fold inputs into a digest before keying need a pragma saying
    so — the analysis cannot see through a hash.
    """

    id = "RPL103"
    name = "memo-key-completeness"
    summary = "engine memo key tuple omits an input the computation reads"
    scope = ("repro/engine/",)

    def check(self, context) -> Iterable[Finding]:
        for summary in self.modules(context):
            for write in summary["memo_writes"]:
                mentions = set(write["mentions"])
                leaves = {m.split(".")[-1] for m in mentions}
                missing: list[str] = []
                if write["builder"] is not None:
                    builder = self._builder_entry(
                        context, summary, write["builder"]
                    )
                    if builder is None:
                        continue
                    params = [
                        p
                        for p in builder["params"][1:]
                        if p not in ("self", "cls")
                    ]
                    for param in params:
                        attrs = builder["param_attr_reads"].get(param, [])
                        if attrs:
                            missing.extend(
                                f"{param}.{attr}"
                                for attr in attrs
                                if attr not in leaves
                            )
                        elif param in builder["reads"] and param not in {
                            m.split(".")[0] for m in mentions
                        }:
                            missing.append(param)
                else:
                    enclosing = summary["functions"].get(write["function"])
                    if enclosing is None:
                        continue
                    roots = {m.split(".")[0] for m in mentions}
                    missing.extend(
                        param
                        for param in enclosing["params"]
                        if param not in ("self", "cls")
                        and param in enclosing["reads"]
                        and param not in roots
                    )
                if missing:
                    yield self.finding(
                        summary,
                        write["line"],
                        write["col"],
                        f"memo key for namespace "
                        f"'{write['namespace']}' in "
                        f"'{write['function']}' omits input(s) the "
                        f"computation reads: {', '.join(sorted(set(missing)))}",
                    )

    @staticmethod
    def _builder_entry(context, summary: dict, builder: str) -> dict | None:
        parts = builder.split(".")
        if parts[0] in ("self", "cls") and len(parts) == 2:
            # Builder is a method of the writing class; find it via the
            # enclosing function's class through any qualname match.
            for entry in summary["functions"].values():
                if entry["name"] == parts[1] and entry["class"] is not None:
                    return entry
            return None
        entry = summary["functions"].get(builder)
        if entry is not None:
            return entry
        return None


class InvalidationCoverageRule(ProjectRule):
    """RPL104: fingerprinted memo namespaces must be invalidated.

    Content-addressed memo entries stay valid forever; entries keyed
    by a *corpus fingerprint* are only valid until the tree sequence
    mutates, so every fingerprint-keyed namespace written to the
    engine's projection memo must be dropped by an ``invalidate*``
    method or by a hook registered through ``on_reset`` — a memo that
    outlives a mutation serves answers about trees that are gone.
    Coverage is textual: the namespace string must appear inside a
    qualifying function in the same module.
    """

    id = "RPL104"
    name = "invalidation-coverage"
    summary = "fingerprint-keyed memo namespace never invalidated"
    scope = ("repro/engine/",)

    def check(self, context) -> Iterable[Finding]:
        for summary in self.modules(context):
            covered: set[str] = set()
            for name, strings in summary["invalidation_strings"].items():
                if name.startswith("invalidate") or name in summary["reset_hooks"]:
                    covered.update(strings)
            for write in summary["memo_writes"]:
                namespace = write["namespace"]
                if not write["fingerprint_keyed"] or namespace is None:
                    continue
                if namespace not in covered:
                    yield self.finding(
                        summary,
                        write["line"],
                        write["col"],
                        f"memo namespace '{namespace}' is keyed by a "
                        "corpus fingerprint but no invalidate* method "
                        "or registered reset hook drops it",
                    )


class HotLoopAllocationRule(ProjectRule):
    """RPL105: no fresh allocations inside hot-kernel loops.

    ``fastmine`` / ``distvec`` / ``topk`` / ``multi_tree`` /
    ``store/pairstore`` loops run per tree pair or per packed key; a ``list()`` or ``np.zeros``
    born on every iteration turns the kernels the benchmarks gate into
    allocator benchmarks.  Flags ``np.*`` array constructors and bare
    ``list``/``dict``/``set`` constructor calls lexically inside
    ``for``/``while`` bodies in the hot modules.  Hoist the
    allocation, reuse a scratch buffer, or pragma the site with a
    justification when the allocation is the algorithm.
    """

    id = "RPL105"
    name = "hot-loop-allocation"
    summary = "allocation inside a hot-kernel loop"
    scope = (
        "repro/core/fastmine.py",
        "repro/core/distvec.py",
        "repro/core/topk.py",
        "repro/core/multi_tree.py",
        "repro/store/pairstore.py",
    )

    def check(self, context) -> Iterable[Finding]:
        for summary in self.modules(context):
            for site in summary["loop_allocations"]:
                yield self.finding(
                    summary,
                    site["line"],
                    site["col"],
                    f"{site['what']} allocated inside a loop in a hot "
                    "kernel; hoist or reuse a scratch buffer",
                )


PROJECT_RULES = (
    EngineThreadingRule(),
    PoolPurityRule(),
    MemoKeyCompletenessRule(),
    InvalidationCoverageRule(),
    HotLoopAllocationRule(),
)
