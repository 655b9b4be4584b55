"""Fixture-backed tests for every RPL rule.

Each rule has at least one fixture that triggers it and one that
passes (``tests/lint/fixtures``).  Fixtures outside the hot-path /
generator / engine scopes are linted under a synthetic module key via
``lint_source(..., module=...)``, which is the supported way to aim a
scoped rule at an arbitrary snippet.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import RULES, PragmaError, lint_source, run_lint

FIXTURES = Path(__file__).parent / "fixtures"

# fixture stem -> module key it is linted under
MODULE_KEYS = {
    "rpl001": "repro/apps/fixture.py",
    "rpl002": "repro/core/fixture.py",
    "rpl002distvec": "repro/core/distvec.py",
    "rpl002store": "repro/store/pairstore.py",
    "rpl002topk": "repro/core/topk.py",
    "rpl003": "repro/core/fastmine.py",
    "rpl004": "repro/apps/fixture.py",
    "rpl005": "repro/generate/fixture.py",
    "rpl007": "repro/apps/fixture.py",
    "rpl008": "repro/obs/profile.py",
    "rpl105": "repro/core/topk.py",
}


def lint_fixture(name: str, **kwargs):
    stem = name.split("_")[0]
    source = (FIXTURES / f"{name}.py").read_text(encoding="utf-8")
    return lint_source(
        source, str(FIXTURES / f"{name}.py"), module=MODULE_KEYS[stem], **kwargs
    )


class TestCatalogue:
    def test_rule_ids_are_unique_and_ordered(self):
        ids = [rule.id for rule in RULES]
        assert ids == sorted(set(ids))
        assert all(id.startswith("RPL") for id in ids)

    def test_every_rule_is_documented(self):
        for rule in RULES:
            assert rule.summary, rule.id
            assert rule.__doc__ and rule.id in rule.__doc__


@pytest.mark.parametrize("rule_id", [rule.id for rule in RULES])
class TestFixturePairs:
    """Every rule: one fixture triggers it, its twin stays clean."""

    def test_bad_fixture_triggers(self, rule_id):
        findings = lint_fixture(f"{rule_id.lower()}_bad", select=[rule_id])
        assert findings, f"{rule_id} did not fire on its bad fixture"
        assert all(f.rule_id == rule_id for f in findings)

    def test_good_fixture_passes(self, rule_id):
        assert lint_fixture(f"{rule_id.lower()}_good", select=[rule_id]) == []


class TestRPL001:
    def test_flags_both_fixture_functions(self):
        findings = lint_fixture("rpl001_bad", select=["RPL001"])
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "collect_labels" in messages and "visit" in messages

    def test_locally_rebound_name_is_not_recursion(self):
        source = (
            "def mine_forest(trees):\n"
            "    from repro.core.multi_tree import mine_forest\n"
            "    return mine_forest(trees, root=trees[0].root)\n"
        )
        assert lint_source(source, module="repro/engine/engine.py") == []

    def test_non_tree_recursion_is_out_of_scope(self):
        source = (
            "def fib(n):\n"
            "    return n if n < 2 else fib(n - 1) + fib(n - 2)\n"
        )
        assert (
            lint_source(source, module="repro/core/x.py", select=["RPL001"])
            == []
        )


class TestRPL002:
    def test_reports_each_literal(self):
        findings = lint_fixture("rpl002_bad", select=["RPL002"])
        # 42 and 21 in the shifts, 0x1FFFFF in the mask, plus the
        # LOCAL_MASK constant assignment.
        assert len(findings) == 4

    def test_only_packing_module_is_exempt(self):
        source = "MASK_BITS = 21\nx = 1 << 21\n"
        assert lint_source(source, module="repro/trees/packing.py") == []
        assert lint_source(source, module="repro/trees/arena.py")

    def test_numpy_wrapped_literals_reported(self):
        # The distvec idiom: layout literals inside np scalar ctors.
        findings = lint_fixture("rpl002distvec_bad", select=["RPL002"])
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "4398046511103" in messages  # the PAIR_MASK value
        assert "42" in messages

    def test_distvec_named_constants_pass(self):
        assert lint_fixture("rpl002distvec_good", select=["RPL002"]) == []

    def test_topk_query_remap_literals_reported(self):
        # The topk idiom: peeling label fields off packed query keys.
        findings = lint_fixture("rpl002topk_bad", select=["RPL002"])
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "21" in messages and "42" in messages
        assert "2097151" in messages  # the LABEL_MASK value

    def test_topk_named_constants_and_mixing_shifts_pass(self):
        # Layout via packing constants passes; the splitmix64 mixing
        # shifts (30 etc.) are not layout values and never fire.
        assert lint_fixture("rpl002topk_good", select=["RPL002"]) == []

    def test_inline_scheme_strings_reported(self):
        # The store idiom: manifest scheme checks must compare against
        # the imported PACKED_KEY_SCHEME, never an inline string — and
        # a stale "cpi-packed/v1" literal counts the same.
        findings = lint_fixture("rpl002store_bad", select=["RPL002"])
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "cpi-packed/v2" in messages
        assert "cpi-packed/v1" in messages
        assert "PACKED_KEY_SCHEME" in messages

    def test_scheme_in_docstrings_and_via_constant_passes(self):
        # Imported-constant comparisons pass, and docstrings may spell
        # the scheme by name (the good fixture does, twice).
        assert lint_fixture("rpl002store_good", select=["RPL002"]) == []


class TestRPL003:
    def test_scoped_to_hot_modules_only(self):
        source = (FIXTURES / "rpl003_bad.py").read_text(encoding="utf-8")
        # The same source outside the hot path is not RPL003's business.
        assert (
            lint_source(source, module="repro/apps/diff.py", select=["RPL003"])
            == []
        )

    def test_intern_and_str_dict_each_reported(self):
        findings = lint_fixture("rpl003_bad", select=["RPL003"])
        messages = " ".join(f.message for f in findings)
        assert "interning" in messages
        assert "str-keyed" in messages


class TestRPL004:
    def test_flags_each_function(self):
        findings = lint_fixture("rpl004_bad", select=["RPL004"])
        named = {f.message.split("'")[1] for f in findings}
        assert named == {"filter_items", "within_budget"}

    def test_params_module_is_exempt(self):
        source = "def validate_maxdist(maxdist):\n    return maxdist\n"
        assert lint_source(source, module="repro/core/params.py") == []


class TestRPL005:
    def test_counts_defaults_and_rng_uses(self):
        findings = lint_fixture("rpl005_bad", select=["RPL005"])
        kinds = [f.message for f in findings]
        assert sum("mutable default" in m for m in kinds) == 2
        assert sum("unseeded" in m or "global" in m for m in kinds) == 2

    def test_global_rng_allowed_outside_generate(self):
        source = "import random\n\ndef f():\n    return random.random()\n"
        assert (
            lint_source(source, module="repro/apps/x.py", select=["RPL005"])
            == []
        )


class TestRPL007:
    def test_attribute_and_import_forms_each_reported(self):
        findings = lint_fixture("rpl007_bad", select=["RPL007"])
        messages = " ".join(f.message for f in findings)
        assert "time.perf_counter" in messages
        assert "importing" in messages
        # Two attribute reads plus the from-import line.
        assert len(findings) == 3

    def test_obs_package_is_exempt(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.perf_counter()\n"
        )
        assert lint_source(source, module="repro/obs/trace.py") == []
        assert lint_source(
            source, module="repro/engine/engine.py", select=["RPL007"]
        )

    def test_wall_clock_is_not_flagged(self):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        assert (
            lint_source(source, module="repro/apps/x.py", select=["RPL007"])
            == []
        )


class TestRPL105:
    def test_np_and_builtin_allocations_each_reported(self):
        findings = lint_fixture("rpl105_bad", select=["RPL105"])
        messages = " ".join(f.message for f in findings)
        assert "np.zeros" in messages
        assert "list()" in messages

    def test_scoped_to_hot_modules_only(self):
        source = (FIXTURES / "rpl105_bad.py").read_text(encoding="utf-8")
        assert (
            lint_source(source, module="repro/apps/report.py", select=["RPL105"])
            == []
        )

    def test_pair_store_module_is_in_scope(self):
        # The memmapped shard reader serves the same per-query loops
        # the in-RAM kernels do; its loops are gated the same way.
        source = (FIXTURES / "rpl105_bad.py").read_text(encoding="utf-8")
        assert lint_source(
            source, module="repro/store/pairstore.py", select=["RPL105"]
        )

    @pytest.mark.parametrize("fixture, flagged", [("bad", True), ("good", False)])
    def test_aggregation_kernel_module_is_in_scope(self, fixture, flagged):
        # The frequent-pair kernel runs once per pattern group over
        # every corpus query; its loops are gated like the kernels'.
        source = (FIXTURES / f"rpl105_{fixture}.py").read_text(encoding="utf-8")
        findings = lint_source(
            source, module="repro/core/multi_tree.py", select=["RPL105"]
        )
        assert bool(findings) is flagged


class TestPragmas:
    def test_line_pragma_suppresses_one_rule(self):
        source = (
            "x = 1 << 21  # repro-lint: disable=RPL002\n"
            "y = 1 << 42\n"
        )
        findings = lint_source(source, module="repro/core/x.py")
        assert [f.line for f in findings] == [2]

    def test_bare_disable_suppresses_everything_on_the_line(self):
        source = "x = 1 << 21  # repro-lint: disable\n"
        assert lint_source(source, module="repro/core/x.py") == []

    def test_skip_file(self):
        source = "# repro-lint: skip-file\nx = 1 << 21\n"
        assert lint_source(source, module="repro/core/x.py") == []

    def test_disable_next_line(self):
        source = (
            "# repro-lint: disable-next-line=RPL002\n"
            "x = 1 << 21\n"
            "y = 1 << 42\n"
        )
        findings = lint_source(source, module="repro/core/x.py")
        assert [f.line for f in findings] == [3]

    def test_disable_next_line_with_justification(self):
        source = (
            "# repro-lint: disable-next-line=RPL002 -- layout is documented\n"
            "x = 1 << 21\n"
        )
        assert lint_source(source, module="repro/core/x.py") == []

    def test_unknown_rule_id_in_pragma_raises(self):
        source = "x = 1 << 21  # repro-lint: disable=RPL999\n"
        with pytest.raises(PragmaError, match="unknown rule id 'RPL999'"):
            lint_source(source, module="repro/core/x.py")

    def test_malformed_rule_id_in_pragma_raises(self):
        # The old [A-Z0-9, ]+ pattern accepted junk like this silently.
        source = "x = 1 << 21  # repro-lint: disable=RPL02,BOGUS\n"
        with pytest.raises(PragmaError, match="malformed rule id"):
            lint_source(source, module="repro/core/x.py")

    def test_equals_with_no_ids_raises(self):
        source = "x = 1 << 21  # repro-lint: disable=\n"
        with pytest.raises(PragmaError, match="no rule ids"):
            lint_source(source, module="repro/core/x.py")

    def test_unknown_verb_raises(self):
        source = "x = 1  # repro-lint: silence=RPL002\n"
        with pytest.raises(PragmaError, match="unparsable"):
            lint_source(source, module="repro/core/x.py")

    def test_multiple_ids_merge(self):
        source = (
            "import time\n"
            "x = (1 << 21) + int(time.perf_counter())"
            "  # repro-lint: disable=RPL002,RPL007\n"
        )
        assert lint_source(source, module="repro/core/x.py") == []


class TestSelfApplication:
    def test_src_repro_is_clean(self):
        # The acceptance gate: the analyzer passes over the package
        # that defines it.
        assert run_lint([Path(__file__).parents[2] / "src" / "repro"]) == []

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", select=["RPL999"])
