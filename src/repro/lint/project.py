"""The whole-program pass: one world of module summaries.

The per-file rules (:mod:`repro.lint.rules`) see one module at a time,
so an invariant that spans modules — a callee that silently drops
``engine=`` — is exactly the one they cannot check.  This module
parses every file once, runs the per-file rules on it, and condenses
it into a summary dict (import map, classes, and the calls and
``engine=`` acceptance of every function).  The summaries
are assembled into a :class:`ProjectContext`, the conservative
cross-module world the whole-program rules (:mod:`repro.lint.xrules`)
analyse.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.analyzer import (
    Finding,
    ModuleContext,
    _iter_python_files,
    check_module,
    dotted_name,
    module_key,
)

__all__ = [
    "ProjectContext",
    "ProjectReport",
    "analyze_project",
    "project_from_sources",
    "summarize_module",
]

_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dotted_module(key: str) -> str:
    """``repro/engine/engine.py`` -> ``repro.engine.engine``."""
    trimmed = key[: -len(".py")] if key.endswith(".py") else key
    parts = trimmed.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _takes_engine(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = node.args
    names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.append(extra.arg)
    return "engine" in names


def _collect_imports(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted target, for every import in the module.

    Function-level imports land in the same flat map: resolution is
    best-effort and a duplicate local name simply keeps the last
    binding, which matches how this codebase uses imports.
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _function_frames(
    tree: ast.AST,
) -> list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None, bool]]:
    """All function defs with (node, owning class, nested) — iterative."""
    frames: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None, bool]] = []
    # Stack entries: (node, owner class name, inside_function)
    stack: list[tuple[ast.AST, str | None, bool]] = [(tree, None, False)]
    while stack:
        node, owner, inside = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTION_TYPES):
                frames.append((child, owner, inside))
                stack.append((child, None, True))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, child.name if not inside else owner, inside))
            else:
                stack.append((child, owner, inside))
    return frames


def _summarize_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    owner: str | None,
    nested: bool,
) -> dict:
    """One function's calls and ``engine=`` acceptance (explicit stack)."""
    calls: list[dict] = []
    stack: list[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Call):
            callee = dotted_name(current.func)
            if callee is not None:
                arg_names = [dotted_name(arg) for arg in current.args]
                calls.append(
                    {
                        "callee": callee,
                        "line": current.lineno,
                        "col": current.col_offset,
                        "kwargs": [
                            kw.arg for kw in current.keywords if kw.arg
                        ],
                        "star_kwargs": any(
                            kw.arg is None for kw in current.keywords
                        ),
                        "arg_names": [
                            name for name in arg_names if name is not None
                        ],
                    }
                )
        stack.extend(ast.iter_child_nodes(current))
    return {
        "name": node.name,
        "qualname": qualname,
        "class": owner,
        "nested": nested,
        "has_engine": _takes_engine(node),
        "calls": calls,
    }


def summarize_module(ctx: ModuleContext) -> dict:
    """One module condensed to its project summary."""
    frames = _function_frames(ctx.tree)
    functions: dict[str, dict] = {}
    for node, owner, nested in frames:
        qualname = node.name if owner is None else f"{owner}.{node.name}"
        # Nested defs share a qualname slot with nobody: suffix by line
        # so they never shadow the module-level namesake.
        slot = qualname if not nested else f"{qualname}@{node.lineno}"
        functions[slot] = _summarize_function(node, qualname, owner, nested)
    classes = sorted(
        {owner for _node, owner, _nested in frames if owner is not None}
    )
    return {
        "module": ctx.module,
        "dotted": _dotted_module(ctx.module),
        "path": ctx.path,
        "skip_file": ctx.skip_file,
        "disabled": {
            str(line): sorted(names) for line, names in ctx.disabled.items()
        },
        "imports": _collect_imports(ctx.tree),
        "classes": classes,
        "functions": functions,
    }


class ProjectContext:
    """The assembled cross-module world the project rules run against."""

    def __init__(self, summaries: Sequence[dict]) -> None:
        self.summaries = list(summaries)
        # module key (repro/engine/engine.py) -> summary
        self.by_key: dict[str, dict] = {}
        # dotted module (repro.engine.engine) -> summary
        self.by_dotted: dict[str, dict] = {}
        # method name -> [(dotted module, qualname)] across all classes
        self.methods_by_name: dict[str, list[tuple[str, str]]] = {}
        for summary in self.summaries:
            self.by_key[summary["module"]] = summary
            self.by_dotted[summary["dotted"]] = summary
            for slot, entry in summary["functions"].items():
                if entry["class"] is not None and not entry["nested"]:
                    self.methods_by_name.setdefault(entry["name"], []).append(
                        (summary["dotted"], slot)
                    )

    def _import_target(
        self, summary: dict, name: str
    ) -> tuple[str, str] | None:
        """Resolve an imported local name to (dotted module, symbol)."""
        target = summary["imports"].get(name)
        if target is None:
            return None
        if target in self.by_dotted:
            return (target, "")
        module, _dot, symbol = target.rpartition(".")
        if module in self.by_dotted:
            return (module, symbol)
        return None

    def resolve_call(
        self, summary: dict, caller: dict, callee: str
    ) -> tuple[str, str, dict] | None:
        """Best-effort resolution of one call to a project function.

        Returns ``(dotted module, qualname, entry)`` or ``None`` when
        the callee cannot be pinned down confidently — unresolved calls
        are never flagged (conservative by construction).
        """
        parts = callee.split(".")
        if len(parts) == 1:
            name = parts[0]
            entry = summary["functions"].get(name)
            if entry is not None and entry["class"] is None:
                return (summary["dotted"], name, entry)
            found = self._import_target(summary, name)
            if found is not None:
                module, symbol = found
                target = self.by_dotted[module]["functions"].get(symbol)
                if target is not None and target["class"] is None:
                    return (module, symbol, target)
            return None
        root, leaf = parts[0], parts[-1]
        if root in ("self", "cls") and len(parts) == 2:
            owner = caller.get("class")
            if owner is not None:
                qualname = f"{owner}.{leaf}"
                entry = summary["functions"].get(qualname)
                if entry is not None:
                    return (summary["dotted"], qualname, entry)
            return None
        if len(parts) == 2:
            # Class.method on an imported or local class.
            found = self._import_target(summary, root)
            if found is not None:
                module, symbol = found
                qualname = f"{symbol}.{leaf}"
                entry = self.by_dotted[module]["functions"].get(qualname)
                if entry is not None:
                    return (module, qualname, entry)
            if root in summary["classes"]:
                qualname = f"{root}.{leaf}"
                entry = summary["functions"].get(qualname)
                if entry is not None:
                    return (summary["dotted"], qualname, entry)
        # Unique-method fallback: an attribute call on some object whose
        # type we cannot see; if exactly one project class defines the
        # method, that must be it.
        candidates = self.methods_by_name.get(leaf, [])
        if len(candidates) == 1:
            module, qualname = candidates[0]
            return (module, qualname, self.by_dotted[module]["functions"][qualname])
        return None

    def suppressed(self, finding: Finding) -> bool:
        """Whether a module pragma (line or skip-file) hides ``finding``."""
        summary = self.by_key.get(module_key(finding.path))
        if summary is None:
            return False
        if summary["skip_file"]:
            return True
        names = summary["disabled"].get(str(finding.line))
        if names is None:
            return False
        return not names or finding.rule_id in names


def project_from_sources(
    entries: Sequence[tuple[str, str]],
) -> ProjectContext:
    """A :class:`ProjectContext` from ``(source, module_key)`` pairs.

    The fixture-test entry point: module keys double as paths, so a
    pair like ``(code, "repro/engine/fixture.py")`` lands in the
    engine scope exactly as a real file there would.
    """
    summaries = []
    for source, key in entries:
        ctx = ModuleContext(source, key)
        summaries.append(summarize_module(ctx))
    return ProjectContext(summaries)


def project_from_sources(
    entries: Sequence[tuple[str, str]],
) -> ProjectContext:
    """A :class:`ProjectContext` from ``(source, module_key)`` pairs.

    The fixture-test entry point: module keys double as paths, so a
    pair like ``(code, "repro/engine/fixture.py")`` lands in the
    engine scope exactly as a real file there would.
    """
    summaries = []
    for source, key in entries:
        ctx = ModuleContext(source, key)
        summaries.append(summarize_module(ctx))
    return ProjectContext(summaries)


class ProjectReport:
    """Everything one whole-program run produced."""

    def __init__(
        self, findings: list[Finding], files: int, rule_ids: list[str]
    ) -> None:
        self.findings = findings
        self.files = files
        self.rule_ids = rule_ids


def analyze_project(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
) -> ProjectReport:
    """Per-file rules plus the whole-program rules, in one serial pass.

    Each module is parsed once: the per-file rules run on it and it is
    summarised.  The summaries then form the :class:`ProjectContext`
    the project rules run over.  ``select`` filters both families by
    rule id; unknown ids raise ``ValueError`` exactly like the
    per-file driver.
    """
    from repro.lint.rules import RULES
    from repro.lint.xrules import PROJECT_RULES
    from repro.obs.context import get_tracer

    all_ids = sorted(rule.id for rule in (*RULES, *PROJECT_RULES))
    wanted: set[str] | None = None
    if select is not None:
        wanted = set(select)
        unknown = wanted - set(all_ids)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}"
            )
    file_rules = [rule for rule in RULES if wanted is None or rule.id in wanted]

    tracer = get_tracer()
    findings: list[Finding] = []
    summaries: list[dict] = []
    with tracer.span("lint.scan", metric="lint.scan.seconds") as scan_span:
        files = list(_iter_python_files(paths))
        for path in files:
            context = ModuleContext(path.read_text(encoding="utf-8"), str(path))
            findings.extend(check_module(context, file_rules))
            summaries.append(summarize_module(context))
        scan_span.annotate(files=len(files))

    with tracer.span("lint.project", metric="lint.project.seconds"):
        project = ProjectContext(summaries)
        for rule in PROJECT_RULES:
            if wanted is not None and rule.id not in wanted:
                continue
            for finding in rule.check(project):
                if not project.suppressed(finding):
                    findings.append(finding)

    findings.sort()
    return ProjectReport(
        findings=findings,
        files=len(files),
        rule_ids=all_ids if wanted is None else sorted(wanted),
    )
