#!/usr/bin/env python3
"""Validate an `atypical_cli --stats=json` dump against the stats schema.

Implements (stdlib-only) the subset of JSON Schema that
scripts/stats_schema.json uses: type, const, required, properties,
additionalProperties, items, minimum, oneOf.

Usage:
    scripts/check_stats_schema.py STATS.json
        [--schema scripts/stats_schema.json]
        [--require-counter NAME]...   # fail unless NAME is a counter > 0

Exit status: 0 if the document conforms (and every extra expectation holds),
1 otherwise, with one line per violation on stderr.
"""

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
}


def validate(value, schema, path, errors):
    """Appends "path: problem" strings to `errors` for every violation."""
    if "oneOf" in schema:
        branch_errors = []
        for branch in schema["oneOf"]:
            attempt = []
            validate(value, branch, path, attempt)
            if not attempt:
                break
            branch_errors.append(attempt)
        else:
            errors.append(f"{path}: matches none of the oneOf alternatives")
        return

    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return

    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        # bool is a subclass of int in Python; JSON booleans are never valid
        # numbers here.
        if isinstance(value, bool) or not isinstance(value, python_type):
            errors.append(f"{path}: expected {expected}, got {value!r}")
            return

    if "minimum" in schema and value < schema["minimum"]:
        errors.append(f"{path}: {value!r} below minimum {schema['minimum']}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key '{key}'")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, child in value.items():
            if key in properties:
                validate(child, properties[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                validate(child, extra, f"{path}.{key}", errors)

    if isinstance(value, list) and "items" in schema:
        for i, child in enumerate(value):
            validate(child, schema["items"], f"{path}[{i}]", errors)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("stats", type=pathlib.Path)
    parser.add_argument(
        "--schema", type=pathlib.Path, default=REPO / "scripts/stats_schema.json"
    )
    parser.add_argument(
        "--require-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless counter NAME is present with a positive value",
    )
    args = parser.parse_args()

    try:
        document = json.loads(args.stats.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"{args.stats}: not readable as JSON: {e}", file=sys.stderr)
        return 1
    schema = json.loads(args.schema.read_text())

    errors: list[str] = []
    validate(document, schema, "$", errors)

    if not errors:
        counters = document["counters"]
        for name in args.require_counter:
            if counters.get(name, 0) <= 0:
                errors.append(f"$.counters.{name}: required counter missing or 0")

    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        summary = (
            f"{len(document['counters'])} counters, "
            f"{len(document['gauges'])} gauges, "
            f"{len(document['histograms'])} histograms"
        )
        print(f"{args.stats}: conforms to schema v{document['schema_version']} "
              f"({summary})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
