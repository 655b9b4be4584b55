"""Tests for the minimal JSON-schema-subset validator."""

from __future__ import annotations

import json

import pytest

from repro.obs.schema import SchemaError, main, validate


class TestTypes:
    def test_single_and_list_types(self):
        assert validate(3, {"type": "integer"}) == []
        assert validate(3, {"type": ["string", "integer"]}) == []
        assert validate(3.5, {"type": "integer"})
        assert validate(None, {"type": "null"}) == []

    def test_bool_is_not_integer_or_number(self):
        assert validate(True, {"type": "integer"})
        assert validate(True, {"type": "number"})
        assert validate(True, {"type": "boolean"}) == []

    def test_unknown_type_raises(self):
        with pytest.raises(SchemaError, match="unknown type"):
            validate(3, {"type": "float"})


class TestObjects:
    SCHEMA = {
        "type": "object",
        "required": ["name"],
        "additionalProperties": False,
        "properties": {
            "name": {"type": "string"},
            "count": {"type": "integer"},
        },
    }

    def test_valid_object(self):
        assert validate({"name": "x", "count": 2}, self.SCHEMA) == []

    def test_missing_required(self):
        errors = validate({"count": 2}, self.SCHEMA)
        assert any("missing required" in error for error in errors)

    def test_additional_properties_false(self):
        errors = validate({"name": "x", "extra": 1}, self.SCHEMA)
        assert any("unexpected property" in error for error in errors)

    def test_additional_properties_schema(self):
        schema = {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        }
        assert validate({"a": 1, "b": 2}, schema) == []
        assert validate({"a": "nope"}, schema)


class TestCompound:
    def test_items(self):
        schema = {"type": "array", "items": {"type": "number"}}
        assert validate([1, 2.5], schema) == []
        errors = validate([1, "x"], schema)
        assert any("[1]" in error for error in errors)

    def test_enum(self):
        assert validate("span", {"enum": ["meta", "span"]}) == []
        assert validate("other", {"enum": ["meta", "span"]})

    def test_any_of_short_circuits(self):
        schema = {"anyOf": [{"type": "integer"}, {"type": "null"}]}
        assert validate(None, schema) == []
        assert validate(3, schema) == []
        errors = validate("x", schema)
        assert any("no anyOf branch" in error for error in errors)

    def test_unknown_keyword_raises(self):
        with pytest.raises(SchemaError, match="unsupported schema keyword"):
            validate(3, {"minimum": 0})

    def test_ref_resolves_against_the_root_defs(self):
        schema = {
            "type": "object",
            "properties": {"pair": {"$ref": "#/$defs/pair"}},
            "$defs": {
                "pair": {"type": "array", "items": {"$ref": "#/$defs/id"}},
                "id": {"type": "integer"},
            },
        }
        assert validate({"pair": [1, 2]}, schema) == []
        assert validate({"pair": [1, "b"]}, schema) == [
            "$.pair[1]: expected type integer, got str"
        ]
        assert validate("x", {"$ref": "#/$defs/id"}, root=schema) != []

    def test_unresolvable_ref_raises(self):
        with pytest.raises(SchemaError, match="unresolvable"):
            validate(3, {"$ref": "#/$defs/missing", "$defs": {}})
        with pytest.raises(SchemaError, match="unresolvable"):
            validate(3, {"$ref": "other.json#/x"})


class TestCli:
    def test_valid_and_invalid_exit_codes(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"type": "integer"}), encoding="utf-8")
        good = tmp_path / "good.json"
        good.write_text("3", encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text('"nope"', encoding="utf-8")
        assert main([str(good), str(schema)]) == 0
        assert main([str(bad), str(schema)]) == 1
        captured = capsys.readouterr()
        assert "valid against" in captured.out
        assert "schema violation" in captured.err

    def test_jsonl_mode_reports_line_numbers(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"type": "integer"}), encoding="utf-8")
        lines = tmp_path / "lines.jsonl"
        lines.write_text('1\n\n"x"\nnot-json\n', encoding="utf-8")
        assert main(["--jsonl", str(lines), str(schema)]) == 1
        captured = capsys.readouterr()
        assert "line 3" in captured.err
        assert "line 4: not JSON" in captured.err

    def test_def_flag_validates_lines_against_one_definition(
        self, tmp_path, capsys
    ):
        schema = tmp_path / "schema.json"
        schema.write_text(
            json.dumps({"type": "object", "$defs": {"line": {"type": "integer"}}}),
            encoding="utf-8",
        )
        lines = tmp_path / "lines.jsonl"
        lines.write_text('1\n2\n', encoding="utf-8")
        assert main(["--jsonl", "--def", "line", str(lines), str(schema)]) == 0
        assert main(["--jsonl", str(lines), str(schema)]) == 1
        lines.write_text('1\n"x"\n', encoding="utf-8")
        assert main(["--jsonl", "--def", "line", str(lines), str(schema)]) == 1
        assert "line 2" in capsys.readouterr().err
