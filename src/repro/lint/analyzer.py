"""Core machinery of :mod:`repro.lint`: contexts, pragmas, drivers.

A :class:`ModuleContext` bundles one parsed source file with its
repo-relative *module key* (``repro/core/fastmine.py``), which is what
rules scope themselves by, plus the per-line pragma table.  The
drivers (:func:`lint_source`, :func:`lint_path`, :func:`run_lint`)
apply every selected rule and return sorted, pragma-filtered
:class:`Finding` records.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from repro.lint.rules import Rule

__all__ = [
    "Finding",
    "ModuleContext",
    "PragmaError",
    "check_module",
    "dotted_name",
    "lint_source",
    "lint_path",
    "run_lint",
]

_PRAGMA_MARKER = re.compile(r"#\s*repro-lint\s*:")
_PRAGMA = re.compile(
    r"#\s*repro-lint\s*:\s*(?P<verb>disable-next-line|disable|skip-file)"
    r"(?:\s*=\s*(?P<ids>[^#]*?))?"
    r"\s*(?:--.*)?$"
)
_RULE_ID = re.compile(r"^RPL\d{3}$")


class PragmaError(ValueError):
    """A ``repro-lint:`` pragma comment that cannot be honoured.

    Raised for unparsable pragmas and for pragmas naming unknown rule
    ids — a typo'd id would otherwise silently disable nothing while
    looking like a suppression.  The CLI reports these as usage errors
    (exit status 2), never as clean runs.
    """


def _known_rule_ids() -> frozenset[str]:
    """Every registered rule id, per-file and whole-program."""
    from repro.lint.rules import RULES
    from repro.lint.xrules import PROJECT_RULES

    return frozenset(rule.id for rule in RULES) | frozenset(
        rule.id for rule in PROJECT_RULES
    )


def _parse_pragma_ids(
    raw: str | None, path: str, lineno: int
) -> frozenset[str]:
    """Validated rule ids of one pragma (empty set = all rules).

    ``raw`` is everything after ``=`` up to an optional ``--``
    justification.  Unknown or malformed ids raise :class:`PragmaError`
    instead of being silently ignored (the old ``[A-Z0-9, ]+`` pattern
    accepted junk).
    """
    if raw is None:
        return frozenset()
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise PragmaError(
            f"{path}:{lineno}: pragma has '=' but no rule ids; drop the "
            "'=' to disable every rule on the line"
        )
    known = _known_rule_ids()
    for name in names:
        if not _RULE_ID.match(name):
            raise PragmaError(
                f"{path}:{lineno}: malformed rule id {name!r} in pragma "
                "(expected RPLxxx)"
            )
        if name not in known:
            raise PragmaError(
                f"{path}:{lineno}: unknown rule id {name!r} in pragma; "
                "see repro-lint --list-rules"
            )
    return frozenset(names)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """The conventional ``path:line:col: ID message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready form (the ``--json`` report)."""
        return {
            "path": self.path,
            "module": module_key(self.path),
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "message": self.message,
        }


def module_key(path: str) -> str:
    """The repo-relative module key of ``path``.

    Everything from the last ``repro`` package component onward,
    ``/``-joined — ``src/repro/core/fastmine.py`` and
    ``/abs/checkout/src/repro/core/fastmine.py`` both map to
    ``repro/core/fastmine.py``.  Paths outside a ``repro`` package
    keep their name, so rules scoped to the package simply never
    match them.
    """
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return Path(path).name


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None (explicit stack)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


class ModuleContext:
    """One source file, parsed, with its identity and pragma table."""

    def __init__(self, source: str, path: str, module: str | None = None) -> None:
        self.source = source
        self.path = path
        self.module = module if module is not None else module_key(path)
        self.tree = ast.parse(source, filename=path)
        self.skip_file = False
        self.disabled: dict[int, frozenset[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _PRAGMA.search(text)
            if match is None:
                if _PRAGMA_MARKER.search(text):
                    raise PragmaError(
                        f"{path}:{lineno}: unparsable repro-lint pragma; "
                        "expected disable[-next-line][=RPLxxx,...] or "
                        "skip-file"
                    )
                continue
            verb = match.group("verb")
            if verb == "skip-file":
                self.skip_file = True
                continue
            names = _parse_pragma_ids(match.group("ids"), path, lineno)
            target = lineno + 1 if verb == "disable-next-line" else lineno
            self._disable(target, names)

    def _disable(self, lineno: int, names: frozenset[str]) -> None:
        """Merge one pragma into the per-line table.

        An empty set means *all rules*; merging anything into it keeps
        it empty, and merging an empty set in clears the line.
        """
        existing = self.disabled.get(lineno)
        if existing is None:
            self.disabled[lineno] = names
        elif not existing or not names:
            self.disabled[lineno] = frozenset()
        else:
            self.disabled[lineno] = existing | names

    def in_package(self, *prefixes: str) -> bool:
        """Whether this module lives under any of the given prefixes.

        Prefixes use module-key form: ``repro/`` matches the whole
        package, ``repro/engine/`` one subpackage, and a full key like
        ``repro/core/fastmine.py`` exactly one module.
        """
        return any(
            self.module == prefix or self.module.startswith(prefix)
            for prefix in prefixes
        )

    def suppressed(self, finding: Finding) -> bool:
        """Whether a line pragma disables this finding."""
        names = self.disabled.get(finding.line)
        if names is None:
            return False
        return not names or finding.rule_id in names


def _select_rules(select: Iterable[str] | None):
    from repro.lint.rules import RULES

    if select is None:
        return list(RULES)
    wanted = set(select)
    unknown = wanted - {rule.id for rule in RULES}
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [rule for rule in RULES if rule.id in wanted]


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    module: str | None = None,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one in-memory source string.

    ``module`` overrides the module key derived from ``path`` — the
    hook fixture tests use to aim scoped rules at arbitrary snippets.
    """
    context = ModuleContext(source, path, module=module)
    return sorted(check_module(context, _select_rules(select)))


def check_module(context: ModuleContext, rules: Iterable[Rule]) -> list[Finding]:
    """Unsorted, pragma-filtered findings of ``rules`` on one module."""
    if context.skip_file:
        return []
    findings: list[Finding] = []
    for rule in rules:
        if not rule.applies(context):
            continue
        for finding in rule.check(context):
            if not context.suppressed(finding):
                findings.append(finding)
    return findings


def lint_path(
    path: str | Path, *, select: Iterable[str] | None = None
) -> list[Finding]:
    """Lint one file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path), select=select)


def _iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")


def run_lint(
    paths: Sequence[str | Path], *, select: Iterable[str] | None = None
) -> list[Finding]:
    """Lint files and directories (recursively); findings come sorted."""
    findings: list[Finding] = []
    for path in _iter_python_files(paths):
        findings.extend(lint_path(path, select=select))
    findings.sort()
    return findings
