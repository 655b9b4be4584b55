"""The whole-program rules.

Per-file rules (:mod:`repro.lint.rules`) check what a single module
can prove about itself.  The rules here run against the assembled
:class:`repro.lint.project.ProjectContext` and check an invariant no
single file can witness: ``engine=`` threading through call chains
across modules (RPL101).

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

    The engine exists so every layer above it shares one set of
    stats, spans and metrics; a wrapper that accepts ``engine=`` but
    calls an engine-capable callee without passing it on silently
    mines outside it — results stay correct, the run's accounting
    quietly loses that work.  Flags each call from an
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


PROJECT_RULES = (EngineThreadingRule(),)
