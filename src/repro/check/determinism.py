"""Determinism checker: run twice, diff the ``key_metrics()`` digests.

The whole experiment pipeline leans on runs being reproducible — the
persistent result cache returns a pickled result instead of simulating,
and the parallel matrix collects worker results assuming they equal the
serial ones.  A single unseeded RNG or iteration over an unordered set
anywhere in the fault path silently breaks that contract.

``repro check determinism APP [POLICY] [RATE]`` replays the same
(application × policy × rate) simulation twice — cache bypassed — and
compares SHA-256 digests of the canonical-JSON ``key_metrics()``.  On a
mismatch the differing metric paths are reported, not just the digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional


def metrics_digest(metrics: dict) -> str:
    """SHA-256 over the canonical JSON form of one ``key_metrics()``."""
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def diff_metrics(
    first: dict, second: dict, prefix: str = ""
) -> list[str]:
    """Paths whose values differ between two ``key_metrics()`` dicts."""
    paths: list[str] = []
    for key in sorted(set(first) | set(second)):
        path = f"{prefix}{key}"
        if key not in first or key not in second:
            paths.append(f"{path} (missing on one side)")
            continue
        a, b = first[key], second[key]
        if isinstance(a, dict) and isinstance(b, dict):
            paths.extend(diff_metrics(a, b, prefix=f"{path}."))
        elif a != b:
            paths.append(f"{path}: {a!r} != {b!r}")
    return paths


@dataclass
class DeterminismReport:
    """Outcome of one run-twice-and-compare check."""

    app: str
    policy: str
    rate: float
    first_digest: str
    second_digest: str
    differences: list[str] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        """``True`` when both replays produced identical metrics."""
        return self.first_digest == self.second_digest

    def render(self) -> str:
        """Human-readable verdict for the CLI."""
        head = (
            f"{self.app} / {self.policy} @ {self.rate:.0%}: "
            f"{'deterministic' if self.deterministic else 'NON-DETERMINISTIC'}"
        )
        lines = [head, f"  digest 1: {self.first_digest}",
                 f"  digest 2: {self.second_digest}"]
        for path in self.differences[:20]:
            lines.append(f"  differs: {path}")
        if len(self.differences) > 20:
            lines.append(f"  ... and {len(self.differences) - 20} more")
        return "\n".join(lines)


def check_determinism(
    app: str,
    policy: str = "hpe",
    rate: float = 0.75,
    *,
    seed: Optional[int] = None,
    scale: float = 1.0,
    sanitize: bool = False,
) -> DeterminismReport:
    """Simulate ``(app, policy, rate)`` twice and compare the metrics.

    Both replays bypass the persistent result cache (a cache hit would
    trivially compare equal) and can optionally run sanitized.
    """
    from repro import check as check_module
    from repro.experiments.runner import run_spec
    from repro.scenarios.spec import DEFAULT_SEED, ScenarioSpec

    if seed is None:
        seed = DEFAULT_SEED
    spec = ScenarioSpec(app, policy, rate, seed=seed, scale=scale)
    if sanitize:
        check_module.configure(enabled=True)
    try:
        runs: list[dict[str, Any]] = [
            run_spec(spec, use_cache=False).key_metrics() for _ in range(2)
        ]
    finally:
        if sanitize:
            check_module.configure(enabled=False)
    first, second = runs
    report = DeterminismReport(
        app=app.upper(),
        policy=policy,
        rate=rate,
        first_digest=metrics_digest(first),
        second_digest=metrics_digest(second),
    )
    if not report.deterministic:
        report.differences = diff_metrics(first, second)
    return report
