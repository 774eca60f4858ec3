"""The differential matrix: two exact simulator tiers, zero drift.

Every synthetic trace generator × every policy × three fixed seeds ×
two oversubscription rates, replayed through the reference loop
(tier 0) and the exact fast kernel (tier 1), asserting bit-identical
``key_metrics()``, eviction *sequences*, every TLB/walker/driver
counter, final structural state, and — for observed runs — the event
stream.

A mismatch does not just fail: it shrinks itself (ddmin-lite) and
writes a minimal repro into ``tests/diff/corpus/`` so the next run
replays it directly.  Checked-in corpus entries are regression-replayed
by :func:`test_corpus_replays_clean`.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check.diffrun import (
    compare_levels,
    run_level,
    save_corpus_entry,
    iter_corpus,
    shrink_failure,
)
from repro.check.difftraces import DEFAULT_LENGTH, GENERATORS, build
from repro.experiments.runner import POLICY_NAMES

SEEDS = (11, 23, 47)
RATES = (0.75, 0.5)
MATRIX_LENGTH = 2048
CORPUS_DIR = Path(__file__).parent / "corpus"


def _capacity(trace, rate: float) -> int:
    return max(8, int(trace.footprint_pages * rate))


def _fail_with_shrunk_repro(trace, policy: str, capacity: int,
                            seed: int, kind: str, rate: float) -> None:
    """Shrink the mismatch, persist it, and fail with the repro path."""
    minimal = shrink_failure(trace.pages, policy, capacity)
    name = f"shrunk-{kind}-{policy}-s{seed}-r{int(rate * 100)}"
    path = save_corpus_entry(
        CORPUS_DIR, name,
        policy=policy, capacity=capacity, pages=minimal,
        description=(
            f"auto-shrunk from generator {kind!r} seed {seed} "
            f"rate {rate:.0%} ({len(trace.pages)} -> {len(minimal)} "
            "episodes)"
        ),
    )
    report = compare_levels(minimal, policy, capacity)
    pytest.fail(
        f"tiers diverge for {kind}/{policy} seed {seed} @ {rate:.0%}; "
        f"minimal repro ({len(minimal)} episodes) written to {path}: "
        + "; ".join(report.mismatches)
    )


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_tiers_bit_identical(kind: str, policy: str) -> None:
    """reference == tier 1 on every observable, all seeds and rates."""
    for seed in SEEDS:
        trace = build(kind, seed, MATRIX_LENGTH)
        for rate in RATES:
            capacity = _capacity(trace, rate)
            report = compare_levels(trace.pages, policy, capacity,
                                    workload_name=trace.name)
            if not report.ok:
                _fail_with_shrunk_repro(trace, policy, capacity,
                                        seed, kind, rate)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_observed_runs_stay_identical(policy: str) -> None:
    """With an event sink attached, both tiers emit the same stream.

    Faults with an event sink take the kernel's driver sub-path, so this
    doubles as its regression test with observability on.
    """
    trace = build("phased", SEEDS[0], MATRIX_LENGTH)
    capacity = _capacity(trace, 0.75)
    report = compare_levels(trace.pages, policy, capacity, observe=True,
                            workload_name=trace.name)
    assert report.ok, report.mismatches
    assert report.runs[0].events, "observed run emitted no events"


@pytest.mark.parametrize("policy", ("lru", "hpe", "clock-pro"))
def test_sanitized_runs_stay_identical(policy: str) -> None:
    """``--sanitize`` keeps both tiers bit-identical (driver sub-path)."""
    trace = build("strided", SEEDS[1], MATRIX_LENGTH)
    capacity = _capacity(trace, 0.5)
    report = compare_levels(trace.pages, policy, capacity, sanitize=True,
                            workload_name=trace.name)
    assert report.ok, report.mismatches


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_prefetching_runs_stay_identical(kind: str) -> None:
    """Degree-3 fault-around keeps both tiers bit-identical.

    Prefetching faults take the kernel's driver sub-path; every policy
    must still match tier 0 on every observable and counter.
    """
    trace = build(kind, SEEDS[0], MATRIX_LENGTH)
    capacity = _capacity(trace, 0.5)
    for policy in POLICY_NAMES:
        report = compare_levels(trace.pages, policy, capacity,
                                prefetch_degree=3,
                                workload_name=trace.name)
        assert report.ok, (policy, report.mismatches)
        assert report.runs[0].driver_stats["prefetches"] > 0, policy


def test_eviction_sequences_are_captured() -> None:
    """The recorder sees evictions on every tier (not vacuous equality)."""
    trace = build("strided", SEEDS[0], MATRIX_LENGTH)
    capacity = _capacity(trace, 0.5)
    for level in (0, 1):
        run = run_level(trace.pages, "lru", capacity, level)
        assert len(run.evictions) == run.metrics["driver"]["evictions"]
        assert run.evictions, "expected evictions at 50% oversubscription"


def test_default_length_matrix_spot_check() -> None:
    """One full-length (4096-episode) cell per generator, as a canary."""
    for kind in GENERATORS:
        trace = build(kind, SEEDS[2], DEFAULT_LENGTH)
        report = compare_levels(trace.pages, "hpe",
                                _capacity(trace, 0.75),
                                workload_name=trace.name)
        assert report.ok, (kind, report.mismatches)


def test_corpus_replays_clean() -> None:
    """Every checked-in shrunk repro stays bit-identical forever."""
    entries = list(iter_corpus(CORPUS_DIR))
    assert entries, "corpus is empty — seed entries are checked in"
    for entry in entries:
        report = compare_levels(
            entry["pages"], entry["policy"], entry["capacity"],
            seed=entry["seed"],
        )
        assert report.ok, (entry["name"], report.mismatches)


def test_shrinker_minimises_a_planted_divergence() -> None:
    """ddmin-lite shrinks against an oracle and stays 1-minimal.

    The oracle fails whenever both marker pages survive, emulating a
    two-event interaction bug; the shrinker must keep exactly those two
    episodes from a 400-episode trace.
    """
    pages = list(range(400))

    def still_fails(candidate: "list[int]") -> bool:
        return 17 in candidate and 303 in candidate

    minimal = shrink_failure(pages, "lru", 64, still_fails=still_fails)
    assert sorted(minimal) == [17, 303]


def test_save_and_iter_corpus_roundtrip(tmp_path) -> None:
    path = save_corpus_entry(
        tmp_path, "roundtrip", policy="hpe", capacity=99,
        pages=[1, 2, 3], description="roundtrip check", seed=13,
    )
    assert path.is_file()
    (entry,) = iter_corpus(tmp_path)
    assert entry["policy"] == "hpe"
    assert entry["capacity"] == 99
    assert entry["pages"] == [1, 2, 3]
    assert entry["seed"] == 13
