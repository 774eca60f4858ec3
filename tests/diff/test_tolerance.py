"""The relaxed tier's tolerance gate: drift bounded, fallbacks loud.

Tier 3 (:mod:`repro.sim.fastpath3`) is *metric-equivalent*, not
bit-identical: DESIGN §13 fixes a set of metrics that must stay exact
and a per-metric tolerance table for the rest.  These tests drive
:func:`repro.check.diffrun.compare_relaxed` over the same generator ×
policy × seed × rate matrix the bit-identical tests use, shrink any
failure into ``tests/diff/corpus`` like the exact differ does, and —
crucially — prove the gate *can* fail: a deliberately broken kernel,
a silent eligibility fallback, and a flipped policy trend must all be
caught.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check.diffrun import (
    EXACT_DRIVER_METRICS,
    EXACT_METRICS,
    RELAXED_TOLERANCES,
    Tolerance,
    check_trend,
    compare_relaxed,
    flatten_metrics,
    relaxed_drift,
    run_level,
    save_corpus_entry,
    shrink_failure,
)
from repro.check.difftraces import GENERATORS, build
from repro.experiments.runner import POLICY_NAMES
from repro.sim import fastpath3

SEEDS = (11, 23, 47)
RATES = (0.75, 0.5)
MATRIX_LENGTH = 2048
CORPUS_DIR = Path(__file__).parent / "corpus"

#: Every policy the relaxed kernel can run (offline Ideal needs future
#: trace positions and legitimately falls back — covered separately).
RELAXED_POLICIES = tuple(p for p in POLICY_NAMES if p != "ideal")


def _capacity(trace, rate: float) -> int:
    return max(8, int(trace.footprint_pages * rate))


def _fail_with_shrunk_repro(trace, policy: str, capacity: int,
                            seed: int, kind: str, rate: float) -> None:
    """Shrink the tolerance violation and fail with the repro path."""

    def still_fails(candidate: "list[int]") -> bool:
        if not candidate:
            return False
        try:
            return not compare_relaxed(candidate, policy, capacity).ok
        except Exception:
            return True

    minimal = shrink_failure(trace.pages, policy, capacity,
                             still_fails=still_fails)
    name = f"relaxed-{kind}-{policy}-s{seed}-r{int(rate * 100)}"
    path = save_corpus_entry(
        CORPUS_DIR, name,
        policy=policy, capacity=capacity, pages=minimal,
        description=(
            f"tolerance violation auto-shrunk from generator {kind!r} "
            f"seed {seed} rate {rate:.0%} ({len(trace.pages)} -> "
            f"{len(minimal)} episodes)"
        ),
    )
    report = compare_relaxed(minimal, policy, capacity)
    pytest.fail(
        f"relaxed tier out of tolerance for {kind}/{policy} seed {seed} "
        f"@ {rate:.0%}; minimal repro ({len(minimal)} episodes) written "
        f"to {path}: " + "; ".join(report.mismatches)
    )


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("policy", RELAXED_POLICIES)
def test_relaxed_tier_within_tolerances(kind: str, policy: str) -> None:
    """v3 vs v1 stays inside the §13 table, all seeds and rates."""
    for seed in SEEDS:
        trace = build(kind, seed, MATRIX_LENGTH)
        for rate in RATES:
            capacity = _capacity(trace, rate)
            report = compare_relaxed(trace.pages, policy, capacity,
                                     workload_name=trace.name)
            if not report.ok:
                _fail_with_shrunk_repro(trace, policy, capacity,
                                        seed, kind, rate)


def test_relaxed_comparison_is_not_vacuous() -> None:
    """The gated runs really executed different tiers with real drift.

    If the relaxed run silently fell back, or the kernels were secretly
    bit-identical everywhere, the whole tolerance matrix would pass
    without testing anything.  At 50% memory the batched evictions must
    produce *some* measurable drift somewhere in the matrix.
    """
    total_drift = 0.0
    executed = set()
    for kind in sorted(GENERATORS):
        trace = build(kind, SEEDS[0], MATRIX_LENGTH)
        capacity = _capacity(trace, 0.5)
        reference = run_level(trace.pages, "hpe", capacity, 1,
                              workload_name=trace.name)
        relaxed = run_level(trace.pages, "hpe", capacity, 3,
                            workload_name=trace.name)
        executed.add(relaxed.executed_tier)
        drift = relaxed_drift(reference.metrics, relaxed.metrics)
        total_drift += sum(drift.values())
    assert executed == {3}, f"relaxed runs fell back: {executed}"
    assert total_drift > 0.0, (
        "v3 produced zero drift across every generator at 50% memory — "
        "either it is secretly bit-identical (tighten the §13 table and "
        "the docs) or the comparison is broken"
    )


def test_silent_fallback_is_a_mismatch() -> None:
    """A relaxed run that fell back must fail the gate, not pass it.

    Ideal needs per-event future trace positions, so tier 3 legally
    falls back to tier 1 — and the comparison would then (vacuously)
    prove v1 equal to itself.  ``compare_relaxed`` must flag that.
    """
    trace = build("phased", SEEDS[0], MATRIX_LENGTH)
    capacity = _capacity(trace, 0.75)
    report = compare_relaxed(trace.pages, "ideal", capacity,
                             workload_name=trace.name)
    assert not report.ok
    assert any("silent fallback" in line for line in report.mismatches), \
        report.mismatches


def test_broken_kernel_is_caught(monkeypatch) -> None:
    """A kernel that drifts beyond the table must fail the gate.

    Wraps the real v3 replay and inflates the fault count and cycle
    total ~20% — far past the 6% tolerances — then checks the exact
    mismatch messages carry the drift, the bounds, and both values.
    """
    real_replay = fastpath3.replay

    def broken_replay(sim, trace) -> int:
        cycles = real_replay(sim, trace)
        stats = sim.driver.stats
        stats.faults += int(stats.faults * 0.2) + 100
        return int(cycles * 1.2)

    monkeypatch.setattr(fastpath3, "replay", broken_replay)
    trace = build("strided", SEEDS[1], MATRIX_LENGTH)
    capacity = _capacity(trace, 0.5)
    report = compare_relaxed(trace.pages, "lru", capacity,
                             workload_name=trace.name)
    assert not report.ok
    text = "\n".join(report.mismatches)
    assert "cycles drifted" in text, text
    assert "driver.faults drifted" in text, text
    assert "rtol=" in text and "atol=" in text, text


def test_broken_exact_metric_is_caught(monkeypatch) -> None:
    """Exact-metric corruption fails even when it is within tolerances.

    Compulsory faults are eviction-independent, so even a 1-count
    drift there means the kernel misclassified a first touch — no
    tolerance applies.
    """
    real_replay = fastpath3.replay

    def broken_replay(sim, trace) -> int:
        cycles = real_replay(sim, trace)
        sim.driver.stats.compulsory_faults += 1
        return cycles

    monkeypatch.setattr(fastpath3, "replay", broken_replay)
    trace = build("phased", SEEDS[2], MATRIX_LENGTH)
    capacity = _capacity(trace, 0.75)
    report = compare_relaxed(trace.pages, "rrip", capacity,
                            workload_name=trace.name)
    assert not report.ok
    assert any("driver.compulsory_faults" in line
               for line in report.mismatches), report.mismatches


def test_trend_gate_on_paper_workload() -> None:
    """HPE decisively beats LRU on BFS at tier 1 and still does at v3."""
    from repro.workloads.suite import get_application

    trace = get_application("BFS").build(scale=0.5)
    capacity = _capacity(trace, 0.5)
    message = check_trend(trace.pages, capacity, workload_name="BFS")
    assert message is None, message


def test_flipped_trend_is_caught(monkeypatch) -> None:
    """A kernel that hurts only HPE must flip the BFS trend loudly."""
    from repro.workloads.suite import get_application

    real_replay = fastpath3.replay

    def hpe_hostile_replay(sim, trace) -> int:
        cycles = real_replay(sim, trace)
        if sim.policy.name == "hpe":
            return cycles * 10
        return cycles

    monkeypatch.setattr(fastpath3, "replay", hpe_hostile_replay)
    trace = get_application("BFS").build(scale=0.5)
    capacity = _capacity(trace, 0.5)
    message = check_trend(trace.pages, capacity, workload_name="BFS")
    assert message is not None and "trend flip" in message, message


def test_shrinker_works_against_the_tolerance_oracle() -> None:
    """ddmin composes with a tolerance-style predicate, staying 1-minimal."""
    pages = list(range(300))

    def still_fails(candidate: "list[int]") -> bool:
        return candidate.count(42) >= 1 and candidate.count(271) >= 1

    minimal = shrink_failure(pages, "lru", 64, still_fails=still_fails)
    assert sorted(minimal) == [42, 271]


# -- the tolerance table itself -------------------------------------------


def test_tolerance_allows_semantics() -> None:
    tol = Tolerance(rtol=0.1, atol=5)
    assert tol.allows(100, 100)
    assert tol.allows(109, 100)          # inside rtol
    assert not tol.allows(111, 100)      # outside rtol
    assert tol.allows(4, 0)              # atol floor on zero base
    assert not tol.allows(6, 0)
    assert Tolerance(rtol=0.1).allows(0, 0)


def test_tolerance_table_covers_every_drifting_metric() -> None:
    """Exact set + tolerance table = the whole key_metrics() surface.

    A metric added to ``key_metrics()`` later must be classified — the
    §13 contract has no "unspecified" bucket.
    """
    trace = build("phased", SEEDS[0], 256)
    run = run_level(trace.pages, "lru", _capacity(trace, 0.75), 1)
    flat = flatten_metrics(run.metrics)
    exact = set(EXACT_METRICS) | {
        f"driver.{name}" for name in EXACT_DRIVER_METRICS
    }
    classified = exact | set(RELAXED_TOLERANCES)
    unclassified = set(flat) - classified
    assert not unclassified, (
        f"key_metrics() fields missing from the §13 contract: "
        f"{sorted(unclassified)}"
    )
    assert not exact & set(RELAXED_TOLERANCES), \
        "a metric cannot be both exact and tolerance-gated"


def test_executed_tier_is_reported_per_run() -> None:
    """LevelRun.executed_tier reflects the engine's fallback record."""
    trace = build("adversarial", SEEDS[0], 512)
    capacity = _capacity(trace, 0.75)
    assert run_level(trace.pages, "lru", capacity, 3).executed_tier == 3
    # 2 numbered the retired batch kernel: it now executes tier 1
    assert run_level(trace.pages, "lru", capacity, 2).executed_tier == 1
    assert run_level(trace.pages, "lru", capacity, 1).executed_tier == 1
    # offline policy: tier 3 request legally executes the v1 loop
    assert run_level(trace.pages, "ideal", capacity, 3).executed_tier == 1
