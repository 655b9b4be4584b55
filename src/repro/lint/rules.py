"""The RPL rule catalogue.

Each rule encodes one invariant of the mining stack that a
general-purpose linter cannot know.  Rules are instances of
:class:`Rule` with an ``id`` (``RPL001``..), a one-line ``summary``
shown by ``repro-lint --list-rules``, a scope (module-key prefixes
under ``src/repro`` the rule applies to), and a ``check`` that yields
:class:`~repro.lint.analyzer.Finding` records.  ``docs/dev.md``
documents each rule with rationale and a triggering example; the
fixture suite in ``tests/lint`` keeps every rule honest with at least
one failing and one passing snippet.

All walks below are iterative (explicit stacks) — the analyzer
practises the discipline its own RPL001 preaches.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.analyzer import Finding, ModuleContext, dotted_name
from repro.trees.packing import (
    DIST_SHIFT,
    HALF_STEP_BITS,
    LABEL_BITS,
    LABEL_MASK,
    MAX_HALF_STEPS,
    MAX_LABELS,
    PACKED_KEY_SCHEME,
)

__all__ = ["Rule", "RULES"]


class Rule:
    """One named check over a parsed module."""

    id: str = ""
    name: str = ""
    summary: str = ""
    scope: tuple[str, ...] = ("repro/",)
    exclude: tuple[str, ...] = ()

    def applies(self, ctx: ModuleContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (module scoping)."""
        if self.exclude and ctx.in_package(*self.exclude):
            return False
        return ctx.in_package(*self.scope)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            ctx.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            self.id,
            message,
        )


_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_TYPES = _FUNCTION_TYPES + (ast.Lambda, ast.ClassDef)
_LOOP_TYPES = (ast.For, ast.AsyncFor, ast.While)


def _iter_functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTION_TYPES):
            yield node


def _walk_body(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    into_scopes: bool,
) -> Iterator[ast.AST]:
    """Walk a function body, optionally not descending into nested scopes."""
    stack: list[ast.AST] = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not into_scopes and isinstance(node, _SCOPE_TYPES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _loop_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node lexically inside a ``for``/``while`` body or header."""
    stack: list[tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, in_loop = stack.pop()
        if in_loop:
            yield node
        descend_in_loop = in_loop or isinstance(node, _LOOP_TYPES)
        for child in ast.iter_child_nodes(node):
            stack.append((child, descend_in_loop))


def _bound_names(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound in the function's own scope (args, assignments,
    imports, loop/with targets, nested def/class names)."""
    args = function.args
    bound = {
        arg.arg
        for arg in args.posonlyargs + args.args + args.kwonlyargs
    }
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            bound.add(extra.arg)
    for node in _walk_body(function, into_scopes=False):
        if isinstance(node, _SCOPE_TYPES) and not isinstance(node, ast.Lambda):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
    return bound


class NoRecursiveTraversal(Rule):
    """RPL001: tree walks must be iterative, never self-recursive.

    Real phylogenies are deep — a caterpillar chain of a few thousand
    taxa overflows CPython's recursion limit long before it strains
    memory.  Any function that both touches tree structure (node
    ``children``/``parent``/``root`` attributes, ``Tree``/``Node``
    parameters) and calls itself is flagged; rewrite it with an
    explicit stack, or on the helpers in ``repro/trees/traversal.py``.
    """

    id = "RPL001"
    name = "no-recursive-traversal"
    summary = (
        "no self-recursive tree traversal in src/repro; use iterative "
        "walks (repro/trees/traversal.py)"
    )
    exclude = ("repro/lint/",)

    _tree_attrs = frozenset(
        {
            "children",
            "parent",
            "root",
            "first_child",
            "next_sibling",
            "preorder",
            "postorder",
            "subtree_nodes",
        }
    )
    _tree_types = re.compile(r"\b(Tree|Node|TreeArena|FreeTree)\b")

    def _touches_trees(
        self, function: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        args = function.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None and self._tree_types.search(
                ast.unparse(arg.annotation)
            ):
                return True
        for node in _walk_body(function, into_scopes=True):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._tree_attrs
            ):
                return True
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for function in _iter_functions(ctx.tree):
            bound = _bound_names(function)
            for node in _walk_body(function, into_scopes=True):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    # A locally rebound name (e.g. `from x import f`
                    # inside f) is not self-recursion.
                    recursive = (
                        func.id == function.name and func.id not in bound
                    )
                elif isinstance(func, ast.Attribute):
                    recursive = func.attr == function.name and isinstance(
                        func.value, ast.Name
                    ) and func.value.id in ("self", "cls")
                else:
                    recursive = False
                if recursive and self._touches_trees(function):
                    yield self.finding(
                        ctx,
                        node,
                        f"function {function.name!r} recurses over tree "
                        "structure; deep phylogenies overflow the stack — "
                        "use an explicit stack or the iterative helpers "
                        "in repro/trees/traversal.py",
                    )
                    break


class NoMagicPackingLiterals(Rule):
    """RPL002: packed-key bit widths live in ``repro/trees/packing.py``.

    The kernel's packed keys are ``(half_steps << 42) | (la << 21) |
    lb``; a module that re-derives 21, 42 or the 0x1FFFFF mask inline
    will silently disagree with the real layout the day it changes.
    Shift amounts, masks and capacity constants must be imported from
    the packing module, never spelled as literals.  Literals wrapped
    in numpy scalar constructors (``keys >> np.uint64(42)``, the
    ``core/distvec.py`` idiom) count the same as bare ones.

    The same goes for the key *scheme string* (``"cpi-packed/..."``)
    that the content addresses and the pair store stamp in: a
    module that spells it inline keeps accepting stale shards after a
    layout bump.  Compare against the imported ``PACKED_KEY_SCHEME``;
    only docstrings may mention the scheme by name.
    """

    id = "RPL002"
    name = "no-magic-packing-literals"
    summary = (
        "no packed-key bit-width/shift/mask or scheme-string literals "
        "outside repro/trees/packing.py"
    )
    exclude = ("repro/trees/packing.py", "repro/lint/")

    _shift_amounts = frozenset({LABEL_BITS, HALF_STEP_BITS, DIST_SHIFT})
    _mask_values = frozenset(
        {
            LABEL_MASK,
            MAX_LABELS,
            MAX_HALF_STEPS,
            (LABEL_MASK << LABEL_BITS) | LABEL_MASK,
        }
    )
    _const_values = _shift_amounts | _mask_values
    _const_names = re.compile(r"BIT|MASK|SHIFT|LABELS|HALF_STEP", re.IGNORECASE)
    _bit_ops = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor)

    _scalar_ctors = frozenset(
        {"uint64", "int64", "uint32", "int32", "intp", "uint", "int_"}
    )
    # Any version of the scheme family counts: a hardcoded
    # "cpi-packed/v1" is exactly the stale-shard bug the rule exists
    # to catch.
    _scheme_prefix = PACKED_KEY_SCHEME.partition("/")[0]

    @staticmethod
    def _docstrings(tree: ast.AST) -> set[int]:
        """ids of the Constant nodes that are documentation strings."""
        exempt: set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(
                node,
                (ast.Module, ast.ClassDef) + _FUNCTION_TYPES,
            ):
                continue
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                exempt.add(id(body[0].value))
        return exempt

    @classmethod
    def _int_const(cls, node: ast.AST) -> int | None:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        # np.uint64(42) wraps the literal in a numpy scalar: same magic
        # number, one AST level down.
        if (
            isinstance(node, ast.Call)
            and not node.keywords
            and len(node.args) == 1
        ):
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if name in cls._scalar_ctors:
                return cls._int_const(node.args[0])
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        docstrings = self._docstrings(ctx.tree)
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith(self._scheme_prefix)
                and id(node) not in docstrings
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"packed-key scheme string {node.value!r} spelled "
                    "inline; compare against PACKED_KEY_SCHEME from "
                    "repro/trees/packing.py so a layout bump invalidates "
                    "this module's artifacts too",
                )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, self._bit_ops):
                shifting = isinstance(node.op, (ast.LShift, ast.RShift))
                for side in (node.left, node.right):
                    value = self._int_const(side)
                    if value is None:
                        continue
                    if (shifting and value in self._shift_amounts) or (
                        not shifting and value in self._mask_values
                    ):
                        yield self.finding(
                            ctx,
                            side,
                            f"magic packed-key literal {value} in a bitwise "
                            "expression; import the named constant from "
                            "repro/trees/packing.py instead",
                        )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                if node.value is None:
                    continue
                value = self._int_const(node.value)
                if value is None or value not in self._const_values:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and self._const_names.search(
                        target.id
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"layout constant {target.id} = {value} "
                            "re-derives the packed-key geometry; import it "
                            "from repro/trees/packing.py",
                        )


class HotPathAllocations(Rule):
    """RPL003: the kernel hot path stays free of string-keyed work.

    ``repro/core/fastmine.py`` and ``repro/trees/arena.py`` exist to
    keep string hashing and per-node allocation out of the sweep; a
    str-keyed dict built inside a loop, or a label-interning call per
    iteration, reintroduces exactly the costs the kernel was built to
    remove (and the ≥3x ``BENCH_kernel.json`` gate will catch too
    late).  Materialise strings only at the :class:`PackedCounts`
    boundary, outside the per-node loops.
    """

    id = "RPL003"
    name = "hot-path-allocations"
    summary = (
        "no str-keyed dict building or label interning inside loops of "
        "repro/core/fastmine.py and repro/trees/arena.py"
    )
    scope = ("repro/core/fastmine.py", "repro/trees/arena.py")

    @staticmethod
    def _str_keyed(node: ast.Dict) -> bool:
        return any(
            isinstance(key, ast.JoinedStr)
            or (isinstance(key, ast.Constant) and isinstance(key.value, str))
            for key in node.keys
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in _loop_nodes(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else None
                )
                if called == "intern":
                    yield self.finding(
                        ctx,
                        node,
                        "label interning inside a loop on the mining "
                        "hot path; intern once up front (LabelTable / "
                        "forest_arenas) and pass ids through",
                    )
                elif called == "dict" and node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        "str-keyed dict built inside a hot-path loop; "
                        "keep the sweep on packed-int keys and "
                        "materialise strings at the boundary",
                    )
            elif isinstance(node, ast.Dict) and self._str_keyed(node):
                yield self.finding(
                    ctx,
                    node,
                    "str-keyed dict literal inside a hot-path loop; "
                    "keep the sweep on packed-int keys and materialise "
                    "strings at the boundary",
                )


class UnvalidatedMiningKnobs(Rule):
    """RPL004: ``minsup``/``maxdist``/``minoccur`` route through
    ``core/params`` validation.

    The paper's knobs carry invariants (``maxdist`` advances in half
    steps, the counts are >= 1) that :class:`repro.core.params
    .MiningParams` enforces in one place.  A function that accepts a
    raw knob must either construct ``MiningParams``, call one of the
    ``validate_*`` helpers, or visibly forward the knob to a callee
    that does — consuming the raw value locally skips validation and
    lets a bad knob corrupt counts silently.
    """

    id = "RPL004"
    name = "unvalidated-mining-knobs"
    summary = (
        "functions taking minsup/maxdist/minoccur must route them "
        "through core/params validation (MiningParams or validate_*)"
    )
    exclude = ("repro/core/params.py", "repro/lint/")

    _knobs = frozenset({"minsup", "maxdist", "minoccur"})
    _validators = frozenset({"MiningParams", "_params", "_resolve"})

    def _routes(self, function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for node in _walk_body(function, into_scopes=True):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if called is not None and (
                called in self._validators or called.startswith("validate_")
            ):
                return True
            for keyword in node.keywords:
                if keyword.arg in self._knobs:
                    return True
                if keyword.arg is None and isinstance(keyword.value, ast.Name):
                    return True  # **kwargs forwarding
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id in self._knobs:
                    return True
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for function in _iter_functions(ctx.tree):
            args = function.args
            taken = sorted(
                self._knobs
                & {
                    arg.arg
                    for arg in args.posonlyargs + args.args + args.kwonlyargs
                }
            )
            if taken and not self._routes(function):
                yield self.finding(
                    ctx,
                    function,
                    f"function {function.name!r} takes {', '.join(taken)} "
                    "but never routes through core/params validation "
                    "(MiningParams, validate_*, or forwarding to a callee "
                    "that does)",
                )


class DeterministicGenerators(Rule):
    """RPL005: no mutable defaults; generators stay deterministic.

    A mutable default argument is shared across calls — state leaks
    between invocations and between tests.  And ``repro/generate``
    exists to produce *reproducible* corpora: touching the module-level
    ``random`` functions (the global, unseeded RNG) makes every
    benchmark and differential test unrepeatable.  Generators take an
    explicit ``random.Random`` (or seed) and thread it through.
    """

    id = "RPL005"
    name = "deterministic-generators"
    summary = (
        "no mutable default arguments in src/repro; no unseeded "
        "module-level random in repro/generate/"
    )
    exclude = ("repro/lint/",)

    _mutable_calls = frozenset(
        {"list", "dict", "set", "bytearray", "Counter", "defaultdict",
         "OrderedDict", "deque"}
    )

    def _mutable_default(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            called = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            return called in self._mutable_calls
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for function in _iter_functions(ctx.tree):
            args = function.args
            for default in list(args.defaults) + [
                node for node in args.kw_defaults if node is not None
            ]:
                if self._mutable_default(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {function.name!r}; "
                        "default to None and create the object inside "
                        "the function",
                    )
        if not ctx.in_package("repro/generate/"):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
            ):
                if node.func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            "random.Random() with no seed in a generator; "
                            "accept an explicit seed or Random instance",
                        )
                else:
                    yield self.finding(
                        ctx,
                        node,
                        f"module-level random.{node.func.attr}() uses the "
                        "global unseeded RNG; generators must thread an "
                        "explicit random.Random through",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name != "Random"
                ]
                if bad:
                    yield self.finding(
                        ctx,
                        node,
                        f"importing {', '.join(bad)} from random binds the "
                        "global unseeded RNG; import random and take an "
                        "explicit random.Random instead",
                    )


class UntracedTimers(Rule):
    """RPL007: no ad-hoc monotonic clocks outside ``repro/obs/``.

    Hand-rolled ``time.perf_counter()`` pairs measure a duration and
    then drop it on the floor — the reading never reaches the metrics
    registry, never lands in a trace, and every call site re-invents
    the subtraction.  All timing goes through :mod:`repro.obs`:
    ``stopwatch()`` for a bare reading, ``registry.time(name)`` to
    accumulate a histogram, ``tracer.span(...)`` for a traced phase.
    Only ``repro/obs/`` itself may touch the raw clock.
    """

    id = "RPL007"
    name = "untraced-timers"
    summary = (
        "no direct time.perf_counter()/time.monotonic() outside "
        "repro/obs/; use obs stopwatches, timers or spans"
    )
    exclude = ("repro/obs/",)

    _clocks = frozenset(
        {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
    )
    # Where the violation happened, for the message; the subclass
    # narrowing the scope (RPL008) swaps in its own phrase.
    _where = "outside repro/obs/"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr in self._clocks
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"direct time.{node.attr} {self._where}; use "
                    "repro.obs.metrics.stopwatch(), registry.time() or "
                    "a tracer span so the reading reaches the registry",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name in self._clocks
                ]
                if bad:
                    yield self.finding(
                        ctx,
                        node,
                        f"importing {', '.join(bad)} from time "
                        f"{self._where}; use "
                        "repro.obs.metrics.stopwatch(), "
                        "registry.time() or a tracer span instead",
                    )


class ObsInternalTimers(UntracedTimers):
    """RPL008: raw clocks in the obs *analysis* layer.

    ``repro/obs/`` as a whole is excluded from RPL007 because the
    recording primitives (:mod:`repro.obs.metrics`,
    :mod:`repro.obs.trace`) are exactly where the raw clock reads must
    live.  The analysis layer that grew on top — profile, history,
    regress, export, schema — has no such licence: it consumes span
    records and manifests that already carry their durations, so a
    fresh ``time.perf_counter()`` there is a timing path invisible to
    traces and the <5% overhead gate.  Those modules time through
    ``stopwatch()``/spans like everyone else.
    """

    id = "RPL008"
    name = "obs-internal-timers"
    summary = (
        "no direct clock reads in repro/obs/ outside metrics.py and "
        "trace.py; the obs analysis layer uses stopwatch()/span APIs"
    )
    scope = ("repro/obs/",)
    exclude = ("repro/obs/metrics.py", "repro/obs/trace.py")
    _where = "in the obs analysis layer"


class HotLoopAllocation(Rule):
    """RPL105: no fresh allocations inside hot-kernel loops.

    ``fastmine`` / ``distvec`` / ``topk`` / ``multi_tree`` /
    ``store/pairstore`` loops run per tree pair or per packed key; a
    ``list()`` or ``np.zeros`` born on every iteration turns the
    kernels the benchmarks gate into allocator benchmarks.  Flags
    ``np.*`` array constructors and bare ``list``/``dict``/``set``
    constructor calls lexically inside ``for``/``while`` bodies in the
    hot modules.  Hoist the allocation, reuse a scratch buffer, or
    pragma the site with a justification when the allocation is the
    algorithm.
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

    _np_allocators = frozenset(
        {
            "zeros",
            "empty",
            "ones",
            "full",
            "array",
            "arange",
            "fromiter",
            "vstack",
            "hstack",
            "concatenate",
            "repeat",
        }
    )
    _builtin_allocators = frozenset({"list", "dict", "set"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in _loop_nodes(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            if (
                len(parts) == 2
                and parts[0] in ("np", "numpy")
                and parts[1] in self._np_allocators
            ):
                what = callee
            elif len(parts) == 1 and parts[0] in self._builtin_allocators:
                what = f"{callee}()"
            else:
                continue
            yield self.finding(
                ctx,
                node,
                f"{what} allocated inside a loop in a hot kernel; hoist "
                "or reuse a scratch buffer",
            )


RULES: tuple[Rule, ...] = (
    NoRecursiveTraversal(),
    NoMagicPackingLiterals(),
    HotPathAllocations(),
    UnvalidatedMiningKnobs(),
    DeterministicGenerators(),
    UntracedTimers(),
    ObsInternalTimers(),
    HotLoopAllocation(),
)
"""Every registered rule, in id order."""
