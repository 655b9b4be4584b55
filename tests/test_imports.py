"""Start-up imports: what each ``repro-mine`` subcommand loads, and the
lazily resolved public names of the package ``__init__`` modules.

Every check that reads ``sys.modules`` runs in a fresh interpreter,
because the test process has long since imported everything.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import subprocess
import sys
import textwrap

import pytest

from repro.trees.newick import parse_newick

LAZY_PACKAGES = [
    "repro",
    "repro.trees",
    "repro.core",
    "repro.consensus",
    "repro.obs",
    "repro.engine",
]

# Modules no mining subcommand runs: each one loaded anyway is start-up
# time every ``frequent`` / ``kernel`` / ``distance`` / ``similar`` pays.
NOT_FOR_MINING = [
    "networkx",
    "repro.consensus.nelson",
    "repro.parsimony",
    "repro.lint",
    "repro.obs.history",
    "repro.obs.regress",
    "repro.obs.profile",
    "repro.apps",
]


def run_python(source: str) -> str:
    """Run ``source`` in a fresh interpreter; return its last stdout line."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def run_cli(argv: list[str]) -> dict:
    """Run ``repro.cli.main(argv)`` in a fresh interpreter and report its
    exit code, its stdout and the modules it left in ``sys.modules``."""
    return json.loads(run_python(f"""
        import contextlib, io, json, sys
        from repro.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main({argv!r})
        print(json.dumps({{"code": code, "stdout": out.getvalue(),
                           "modules": sorted(sys.modules)}}))
    """))


@pytest.fixture
def inputs(tmp_path):
    files = {
        "forest": "((a,b),(c,d));\n((a,b),(c,e));\n((a,c),(b,d));\n",
        "group": "((a,b),(c,f));\n(((a,b),c),f);\n",
        "query": "((a,b),(c,d));\n",
        "other": "((a,c),(b,d));\n",
        "profile": "((a,b),(c,d));\n((a,b),(c,d));\n((a,c),(b,d));\n",
    }
    paths = {}
    for name, text in files.items():
        path = tmp_path / f"{name}.nwk"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestMiningImports:
    @pytest.mark.parametrize(
        "argv",
        [
            ["frequent", "{forest}", "--minsup", "2"],
            ["kernel", "{forest}", "{group}"],
            ["distance", "{query}", "{other}"],
            ["similar", "{query}", "{forest}", "--k", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_subcommand_skips_unused_modules(self, inputs, argv):
        run = run_cli([arg.format(**inputs) for arg in argv])
        assert run["code"] == 0
        assert run["stdout"]
        loaded = [
            name for name in NOT_FOR_MINING
            if any(module == name or module.startswith(name + ".")
                   for module in run["modules"])
        ]
        assert loaded == []

    @pytest.mark.parametrize(
        "argv, loads_topk",
        [
            (["frequent", "{forest}", "--minsup", "2"], False),
            (["kernel", "{forest}", "{group}"], False),
            (["similar", "{query}", "{forest}", "--k", "2"], True),
        ],
        ids=["frequent", "kernel", "similar"],
    )
    def test_topk_loads_only_for_top_k_queries(self, inputs, argv, loads_topk):
        run = run_cli([arg.format(**inputs) for arg in argv])
        assert run["code"] == 0
        assert ("repro.core.topk" in run["modules"]) == loads_topk

    def test_frequent_loads_no_distance_code(self, inputs):
        run = run_cli(["frequent", inputs["forest"], "--minsup", "2"])
        assert run["code"] == 0
        distance = ["repro.core.distvec", "repro.core.distance", "repro.core.pairset"]
        assert [name for name in distance if name in run["modules"]] == []

    def test_kernel_loads_no_reference_distance_code(self, inputs):
        # DistanceMode lives in repro.core.params: the packed kernel
        # path never needs the Eq 6 reference modules.
        run = run_cli(["kernel", inputs["forest"], inputs["group"]])
        assert run["code"] == 0
        reference = ["repro.core.distance", "repro.core.pairset"]
        assert [name for name in reference if name in run["modules"]] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["frequent", "{forest}", "--minsup", "2"],
            ["kernel", "{forest}", "{group}"],
        ],
        ids=["frequent", "kernel"],
    )
    def test_one_shot_runs_load_no_content_addressing(self, inputs, argv):
        # Only a corpus commit addresses trees (MiningEngine.packed_counts).
        run = run_cli([arg.format(**inputs) for arg in argv])
        assert run["code"] == 0
        addressing = ["repro.engine.cache", "hashlib"]
        assert [name for name in addressing if name in run["modules"]] == []

    def test_mode_choices_spell_the_distance_modes(self):
        from repro.cli import build_parser
        from repro.core.distance import DistanceMode

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        mode = next(
            action for action in subparsers.choices["distance"]._actions
            if action.dest == "mode"
        )
        assert mode.choices == [member.value for member in DistanceMode]

    def test_nelson_consensus_still_runs(self, inputs):
        run = run_cli(["consensus", inputs["profile"], "--method", "nelson"])
        assert run["code"] == 0
        # Sibling order in consensus output follows string hashing, so
        # compare the tree, not the text.
        expected = parse_newick("((a,b),(c,d));")
        assert parse_newick(run["stdout"]).isomorphic_to(expected)
        assert "networkx" in run["modules"]


class TestConsensusName:
    @pytest.mark.parametrize(
        "prelude", ["import repro.cli", "import repro.consensus.strict"]
    )
    def test_repro_consensus_is_the_function(self, prelude):
        # consensus is also a subpackage: importing any of its modules
        # binds the subpackage to repro.consensus unless the package
        # __init__ binds the function first.
        assert run_python(f"""
            {prelude}
            import sys
            import repro
            base = sys.modules["repro.consensus.base"]
            print(repro.consensus is base.consensus)
        """) == "True"


class TestLazyPublicNames:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_exported_name_resolves(self, package):
        assert run_python(f"""
            import importlib
            module = importlib.import_module({package!r})
            listed = set(dir(module))
            missing_from_dir = [n for n in module.__all__ if n not in listed]
            namespace = {{}}
            exec("from {package} import *", namespace)
            unbound = [n for n in module.__all__ if n not in namespace]
            mismatched = [n for n in module.__all__
                          if getattr(module, n) is not namespace.get(n)]
            print(missing_from_dir, unbound, mismatched)
        """) == "[] [] []"

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        import importlib

        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018
        assert not hasattr(module, "mine_tre")
        assert "no_such_name" not in dir(module)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_type_checkers_see_every_exported_name(self, package):
        # ruff (F822) and mypy read the ``if TYPE_CHECKING:`` imports, the
        # interpreter reads ``_EXPORTS``: both must bind every name in
        # ``__all__``, and from the same module.
        import importlib

        module = importlib.import_module(package)
        tree = ast.parse(inspect.getsource(module))
        eager, typed = set(), {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                eager.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign):
                eager.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
            elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                for stmt in node.body:
                    assert isinstance(stmt, ast.ImportFrom)
                    typed.update((alias.name, stmt.module) for alias in stmt.names)
        lazy = {name: f"{package}.{sub}" for name, sub in module._EXPORTS.items()}
        assert typed == lazy
        assert set(module.__all__) == (eager & set(module.__all__)) | set(lazy)
        assert not eager & set(lazy)
