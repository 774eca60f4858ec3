"""The BENCH_matrix.json schema gate: required fields stay recorded.

The committed artifact must validate, and a missing, non-numeric or
out-of-bounds field fails CI rather than silently shipping a partial
re-record.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.check.bench_schema import main, validate_bench_matrix

ARTIFACT = Path(__file__).resolve().parents[2] / "BENCH_matrix.json"


def _valid_payload() -> dict:
    return json.loads(ARTIFACT.read_text(encoding="ascii"))


def test_committed_artifact_is_schema_valid() -> None:
    assert validate_bench_matrix(_valid_payload()) == []


def test_non_object_top_level_is_rejected() -> None:
    problems = validate_bench_matrix([1, 2, 3])
    assert any("top level" in problem for problem in problems)


def test_boolean_is_not_a_number() -> None:
    payload = _valid_payload()
    payload["cold_seconds"] = True
    problems = validate_bench_matrix(payload)
    assert any("cold_seconds" in problem for problem in problems)


def test_empty_apps_list_is_rejected() -> None:
    payload = _valid_payload()
    payload["apps"] = []
    problems = validate_bench_matrix(payload)
    assert any("apps" in problem for problem in problems)


def test_non_string_policy_is_rejected() -> None:
    payload = _valid_payload()
    payload["policies"] = ["lru", 7]
    problems = validate_bench_matrix(payload)
    assert any("policies" in problem for problem in problems)


def test_cli_accepts_the_committed_artifact(capsys) -> None:
    assert main([str(ARTIFACT)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_reports_violations(tmp_path, capsys) -> None:
    payload = _valid_payload()
    del payload["warm_seconds"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload), encoding="ascii")
    assert main([str(broken)]) == 1
    assert "schema violation" in capsys.readouterr().err


def test_cli_flags_unreadable_artifacts(tmp_path, capsys) -> None:
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="ascii")
    assert main([str(garbled)]) == 2
    assert "unreadable" in capsys.readouterr().err
