"""Schema validation for ``BENCH_matrix.json`` (no jsonschema dep).

CI's ``matrix-smoke`` job runs ``bench_matrix_wallclock`` and then
validates the artifact with :func:`validate_bench_matrix` so a drive-by
edit cannot silently drop a metric the dashboards read.  Mirrors
:mod:`repro.serve.bench_schema` (the ``BENCH_service.json`` checker):
a small hand-rolled walker over required keys, types, and bounds.
"""

from __future__ import annotations

from typing import Mapping, Optional

#: Required numeric fields (the cold vs. warm record) and their
#: inclusive lower bounds.
_NUMERIC_FIELDS: dict[str, float] = {
    "scale": 0.01,
    "jobs": 1,
    "cold_seconds": 0,
    "warm_seconds": 0,
    "warm_speedup": 0,
}

#: Required non-empty list-of-X fields.
_LIST_FIELDS: dict[str, type] = {
    "apps": str,
    "policies": str,
    "rates": float,
}


def _number(value: object) -> Optional[float]:
    """The value as a float, or ``None`` when it is not a real number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def validate_bench_matrix(data: object) -> list[str]:
    """Every schema violation in ``data`` (empty list == valid).

    Expected shape::

        {"apps": [...], "policies": [...], "rates": [...],
         "scale": x, "jobs": N,
         "cold_seconds": x, "warm_seconds": x, "warm_speedup": x}
    """
    if not isinstance(data, Mapping):
        return [f"top level must be an object, got {type(data).__name__}"]
    problems: list[str] = []
    for name, lower in _NUMERIC_FIELDS.items():
        value = _number(data.get(name))
        if value is None:
            problems.append(
                f"{name}: expected a number, got {data.get(name)!r}"
            )
        elif value < lower:
            problems.append(f"{name}: {value} below lower bound {lower}")
    for name, element_type in _LIST_FIELDS.items():
        value = data.get(name)
        if not isinstance(value, list) or not value:
            problems.append(f"{name}: expected a non-empty list")
            continue
        for element in value:
            ok = (
                isinstance(element, (int, float))
                and not isinstance(element, bool)
                if element_type is float
                else isinstance(element, element_type)
            )
            if not ok:
                problems.append(
                    f"{name}: element {element!r} is not "
                    f"{element_type.__name__}"
                )
                break
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    """CLI shim: ``python -m repro.check.bench_schema BENCH_matrix.json``."""
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="validate a BENCH_matrix.json artifact"
    )
    parser.add_argument("path", help="path to BENCH_matrix.json")
    options = parser.parse_args(argv)
    try:
        with open(options.path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"unreadable artifact: {exc}", file=sys.stderr)
        return 2
    problems = validate_bench_matrix(data)
    for problem in problems:
        print(f"schema violation: {problem}", file=sys.stderr)
    if not problems:
        print(f"{options.path}: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
