"""A minimal JSON-schema-subset validator (zero dependencies).

CI validates emitted trace files and run manifests against the
checked-in schemas under ``schemas/`` without installing
``jsonschema``; this module implements exactly the subset those
schemas use: ``type`` (single or list), ``properties``, ``required``,
``additionalProperties`` (boolean or schema), ``items``, ``enum``,
``anyOf``, and ``$ref`` to a ``#/$defs/NAME`` of the same document.
Unknown schema keywords raise instead of being silently ignored, so a
schema cannot drift beyond what is actually enforced.

Command line::

    python -m repro.obs.schema instance.json schema.json
    python -m repro.obs.schema --jsonl trace.jsonl schema.json
    python -m repro.obs.schema --jsonl --def journal_line \
        journal.jsonl store.schema.json

``--jsonl`` validates every line of a JSON-lines file against the
schema (the trace format); ``--def NAME`` validates against the
schema's ``$defs`` entry ``NAME`` instead of the whole schema.  Exit
status 0 on success, 1 on any validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

__all__ = ["SchemaError", "validate", "validate_file", "main"]

_CHECKED_KEYWORDS = frozenset(
    {
        "type",
        "properties",
        "required",
        "additionalProperties",
        "items",
        "enum",
        "anyOf",
        "$ref",
    }
)
# ``$defs`` entries are checked where a ``$ref`` names them.
_DESCRIPTIVE_KEYWORDS = frozenset(
    {"$schema", "$id", "$defs", "title", "description"}
)
_DEFS_PREFIX = "#/$defs/"

_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int)
    and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


class SchemaError(ValueError):
    """The schema itself uses a keyword this validator does not cover."""


def _check_type(value: Any, expected: str | Sequence[str], path: str) -> list[str]:
    names = [expected] if isinstance(expected, str) else list(expected)
    for name in names:
        probe = _TYPE_CHECKS.get(name)
        if probe is None:
            raise SchemaError(f"unknown type {name!r} at {path}")
        if probe(value):
            return []
    return [f"{path}: expected type {'/'.join(names)}, got {type(value).__name__}"]


def _resolve(root: dict, ref: Any, path: str) -> Any:
    """The ``$defs`` entry a ``#/$defs/NAME`` reference names."""
    defs = root.get("$defs", {})
    if not (isinstance(ref, str) and ref.startswith(_DEFS_PREFIX)) or (
        ref[len(_DEFS_PREFIX):] not in defs
    ):
        raise SchemaError(f"unresolvable $ref {ref!r} at {path}")
    return defs[ref[len(_DEFS_PREFIX):]]


def validate(
    instance: Any, schema: Any, path: str = "$", root: dict | None = None
) -> list[str]:
    """All violations of ``schema`` by ``instance`` (empty = valid).

    ``root`` is the document a ``$ref`` resolves against: ``schema``
    itself unless ``schema`` is part of a larger one.
    """
    if not isinstance(schema, dict):
        raise SchemaError(f"schema at {path} must be an object, got {schema!r}")
    unknown = set(schema) - _CHECKED_KEYWORDS - _DESCRIPTIVE_KEYWORDS
    if unknown:
        raise SchemaError(
            f"unsupported schema keyword(s) {sorted(unknown)} at {path}"
        )
    root = schema if root is None else root

    errors: list[str] = []
    if "$ref" in schema:
        errors.extend(
            validate(instance, _resolve(root, schema["$ref"], path), path, root)
        )
    if "anyOf" in schema:
        branches = schema["anyOf"]
        failures: list[str] = []
        for index, branch in enumerate(branches):
            branch_errors = validate(
                instance, branch, f"{path}<anyOf:{index}>", root
            )
            if not branch_errors:
                break
            failures.extend(branch_errors)
        else:
            errors.append(f"{path}: no anyOf branch matched")
            errors.extend(failures)

    if "type" in schema:
        type_errors = _check_type(instance, schema["type"], path)
        if type_errors:
            # Structural keywords below assume the right shape.
            return errors + type_errors

    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']!r}")

    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        for name, value in instance.items():
            if name in properties:
                errors.extend(
                    validate(value, properties[name], f"{path}.{name}", root)
                )
            else:
                extra = schema.get("additionalProperties", True)
                if extra is False:
                    errors.append(f"{path}: unexpected property {name!r}")
                elif isinstance(extra, dict):
                    errors.extend(
                        validate(value, extra, f"{path}.{name}", root)
                    )

    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(
                validate(item, schema["items"], f"{path}[{index}]", root)
            )

    return errors


def validate_file(
    instance_path: str,
    schema_path: str,
    jsonl: bool = False,
    definition: str | None = None,
) -> list[str]:
    """Validate one JSON (or JSON-lines) file against a schema file,
    or against its ``$defs`` entry ``definition``."""
    with open(schema_path, encoding="utf-8") as handle:
        root = json.load(handle)
    schema = root
    if definition is not None:
        schema = {"$ref": _DEFS_PREFIX + definition}
    errors: list[str] = []
    if jsonl:
        with open(instance_path, encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    line = json.loads(raw)
                except json.JSONDecodeError as error:
                    errors.append(f"line {number}: not JSON ({error})")
                    continue
                errors.extend(
                    f"line {number}: {message}"
                    for message in validate(line, schema, root=root)
                )
        return errors
    with open(instance_path, encoding="utf-8") as handle:
        instance = json.load(handle)
    return validate(instance, schema, root=root)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.schema",
        description="Validate a JSON or JSON-lines file against a schema "
        "(minimal subset, no dependencies).",
    )
    parser.add_argument("instance", help="JSON (or JSON-lines) file to check")
    parser.add_argument("schema", help="JSON schema file")
    parser.add_argument(
        "--jsonl",
        action="store_true",
        help="validate every line of a JSON-lines file",
    )
    parser.add_argument(
        "--def",
        dest="definition",
        metavar="NAME",
        help="validate against the schema's $defs entry NAME",
    )
    args = parser.parse_args(argv)
    errors = validate_file(
        args.instance, args.schema, jsonl=args.jsonl, definition=args.definition
    )
    if errors:
        for message in errors:
            print(message, file=sys.stderr)
        print(
            f"{args.instance}: {len(errors)} schema violation(s)",
            file=sys.stderr,
        )
        return 1
    print(f"{args.instance}: valid against {args.schema}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
