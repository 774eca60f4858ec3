"""Golden key-metrics snapshots: what the (agreeing) tiers agree on.

The differential matrix proves tier equality; these snapshots pin the
absolute numbers so a lockstep semantic regression — both tiers
drifting together — still fails.  Regenerate after an intentional
change with ``hpe-repro golden --update`` and review the JSON diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check import golden
from repro.check.diffrun import run_level
from repro.check.difftraces import GENERATORS
from repro.workloads.suite import get_application

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_snapshot_files_are_checked_in() -> None:
    for kind in GENERATORS:
        path = GOLDEN_DIR / f"{kind}.json"
        assert path.is_file(), (
            f"missing golden snapshot {path}; generate with: "
            "hpe-repro golden --update"
        )


def test_default_dir_resolves_to_checked_in_snapshots() -> None:
    assert golden.default_golden_dir() == GOLDEN_DIR


def test_current_simulator_matches_snapshots() -> None:
    problems = golden.check_golden(GOLDEN_DIR)
    assert not problems, "\n".join(problems)


def test_snapshots_cover_every_policy_and_rate() -> None:
    from repro.experiments.runner import POLICY_NAMES

    for kind in GENERATORS:
        with open(GOLDEN_DIR / f"{kind}.json", encoding="ascii") as stream:
            snapshot = json.load(stream)
        assert snapshot["seed"] == golden.GOLDEN_SEED
        assert snapshot["length"] == golden.GOLDEN_LENGTH
        expected_keys = {
            f"{policy}@{rate}"
            for policy in POLICY_NAMES
            for rate in golden.GOLDEN_RATES
        }
        assert set(snapshot["entries"]) == expected_keys


def test_tampered_snapshot_is_detected(tmp_path) -> None:
    """A single perturbed counter in one entry must be reported."""
    (written,) = golden.write_golden(tmp_path, kinds=["phased"])
    snapshot = json.loads(written.read_text(encoding="ascii"))
    entry = snapshot["entries"]["lru@0.75"]
    entry["driver"]["evictions"] += 1
    written.write_text(json.dumps(snapshot), encoding="ascii")
    problems = golden.check_golden(tmp_path, kinds=["phased"])
    assert any("lru@0.75" in problem and "driver" in problem
               for problem in problems), problems


def test_missing_snapshot_is_reported(tmp_path) -> None:
    problems = golden.check_golden(tmp_path, kinds=["adversarial"])
    assert any("missing snapshot" in problem for problem in problems)


# -- byte-identity across the SoA refactor --------------------------------


def test_exact_goldens_byte_identical_to_manifest() -> None:
    """The snapshot *bytes* are pinned, not just their meaning.

    ``MANIFEST.sha256`` was recorded before the struct-of-arrays core
    landed; the tiers must stay bit-identical through it, so the golden
    files must never change — not even re-serialisation.
    """
    import hashlib

    manifest = GOLDEN_DIR / "MANIFEST.sha256"
    assert manifest.is_file(), "byte-identity manifest is checked in"
    entries = {}
    for line in manifest.read_text(encoding="ascii").splitlines():
        digest, name = line.split()
        entries[name.lstrip("*")] = digest
    assert set(entries) == {f"{kind}.json" for kind in GENERATORS}
    for name, expected in sorted(entries.items()):
        actual = hashlib.sha256(
            (GOLDEN_DIR / name).read_bytes()
        ).hexdigest()
        assert actual == expected, (
            f"{name} changed since the manifest was recorded — tiers 0-2 "
            "are contractually bit-identical across the SoA refactor; if "
            "this change is an intentional semantic change, regenerate "
            "both the snapshot and MANIFEST.sha256 and say why in the PR"
        )


# -- paper orderings on paper traces --------------------------------------

#: ``(cycles, driver faults)`` per policy at tier 1 on the paper's BFS
#: and STN traces (scale 0.5, trace seed 0, policy seed 7, capacity
#: ``max(8, int(footprint * rate))``).
PAPER_CELLS = {
    ("BFS", 0.75): {
        "hpe": (153523462, 5373),
        "lru": (271462092, 9480),
        "random": (166414953, 5822),
    },
    ("BFS", 0.5): {
        "hpe": (211300175, 7376),
        "lru": (399224052, 13920),
        "random": (288232494, 10055),
    },
    ("STN", 0.75): {
        "hpe": (55952211, 1952),
        "lru": (88115251, 3072),
        "random": (45125902, 1575),
    },
    ("STN", 0.5): {
        "hpe": (75284499, 2624),
        "lru": (88149715, 3072),
        "random": (72183063, 2516),
    },
}

#: Policies HPE must beat on both cycles and faults (Figs. 10-11): LRU
#: everywhere, Random on BFS at 50%, where the gap is decisive.
PAPER_ORDERINGS = {
    ("BFS", 0.75): ("lru",),
    ("BFS", 0.5): ("lru", "random"),
    ("STN", 0.75): ("lru",),
    ("STN", 0.5): ("lru",),
}


@pytest.mark.parametrize("app,rate", sorted(PAPER_CELLS))
def test_paper_cells_and_orderings(app: str, rate: float) -> None:
    """HPE, LRU and Random on paper traces: exact values and orderings."""
    trace = get_application(app).build(scale=0.5)
    capacity = max(8, int(trace.footprint_pages * rate))
    measured = {}
    for policy in PAPER_CELLS[(app, rate)]:
        metrics = run_level(trace.pages, policy, capacity, 1,
                            workload_name=trace.name).metrics
        measured[policy] = (metrics["cycles"], metrics["driver"]["faults"])
    assert measured == PAPER_CELLS[(app, rate)]
    hpe_cycles, hpe_faults = measured["hpe"]
    for worse in PAPER_ORDERINGS[(app, rate)]:
        cycles, faults = measured[worse]
        assert hpe_cycles < cycles, (app, rate, worse, "cycles")
        assert hpe_faults < faults, (app, rate, worse, "faults")
