"""Acceptance gate: sanitizing never changes simulation results.

Every policy runs two suite applications (one regular, one irregular)
twice — sanitized and unsanitized — and the ``key_metrics()`` must be
bit-identical.  This is what makes ``REPRO_SANITIZE=1`` safe to leave on
while debugging: the sanitizer observes, it never participates.
"""

from __future__ import annotations

import pytest

from repro import check as check_module
from repro.experiments.runner import POLICY_NAMES, run_spec
from repro.scenarios.spec import ScenarioSpec

APPS = ("STN", "BFS")  # regular + irregular (Table I patterns)
RATE = 0.75
SCALE = 0.25


def _run(app: str, policy: str, sanitize: bool) -> dict:
    check_module.configure(enabled=sanitize)
    try:
        result = run_spec(
            ScenarioSpec(app, policy, RATE, scale=SCALE), use_cache=False
        )
    finally:
        check_module.configure(enabled=False)
    if sanitize:
        stats = result.extras.get("sanitizer")
        assert stats is not None and stats.sweeps > 0
    return result.key_metrics()


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_sanitized_run_is_bit_identical(app: str, policy: str) -> None:
    plain = _run(app, policy, sanitize=False)
    sanitized = _run(app, policy, sanitize=True)
    assert sanitized == plain


def test_fast_mode_is_also_bit_identical() -> None:
    plain = _run("BFS", "hpe", sanitize=False)
    check_module.configure(enabled=True, fast=True)
    try:
        result = run_spec(
            ScenarioSpec("BFS", "hpe", RATE, scale=SCALE), use_cache=False
        )
    finally:
        check_module.configure(enabled=False, fast=False)
    assert result.key_metrics() == plain
