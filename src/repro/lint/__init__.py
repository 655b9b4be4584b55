"""``repro-lint``: the repo's own AST static-analysis pass.

The mining stack encodes invariants that no general-purpose linter
knows about: packed-int key layouts (:mod:`repro.trees.packing`),
iterative-only traversal of arbitrarily deep phylogenies, allocation
discipline in the kernel hot paths, centralised validation of the
paper's mining knobs, deterministic randomness in the generators, and
timings that reach the metrics registry.  Each rule here turns one
such convention into a mechanical check, so a future change that
would corrupt mined cousin-pair counts fails the build instead of
silently diverging.

On top of the per-file rules sits a *whole-program* pass
(:mod:`repro.lint.project`): it condenses every module into a summary
(import map, classes, conservative call graph) and runs the
cross-module rules (:mod:`repro.lint.xrules`) over the assembled
world — today ``engine=`` threading (RPL101), which a single file can
never witness.

Run it as ``repro-lint [paths]`` or ``python -m repro.lint [paths]``;
see :mod:`repro.lint.rules` / :mod:`repro.lint.xrules` for the rule
catalogue and ``docs/dev.md`` for rationale and examples.  Suppress a
finding with an end-of-line pragma comment ``repro-lint:
disable=RPL001`` (or ``repro-lint: disable-next-line=RPL001`` on the
line before), skip a whole file with ``repro-lint: skip-file``, and
record
pre-existing debt in the checked-in ``.repro-lint-baseline.json``
(:mod:`repro.lint.baseline`).
"""

from __future__ import annotations

from repro.lint.analyzer import (
    Finding,
    PragmaError,
    lint_path,
    lint_source,
    run_lint,
)
from repro.lint.project import (
    ProjectContext,
    ProjectReport,
    analyze_project,
    project_from_sources,
)
from repro.lint.rules import RULES, Rule
from repro.lint.xrules import PROJECT_RULES, ProjectRule

__all__ = [
    "Finding",
    "PragmaError",
    "ProjectContext",
    "ProjectReport",
    "ProjectRule",
    "PROJECT_RULES",
    "Rule",
    "RULES",
    "analyze_project",
    "lint_path",
    "lint_source",
    "project_from_sources",
    "run_lint",
]
