"""Pin the policy internals that ``key_metrics()`` does not show.

The goldens compare whole-run key metrics only, and at the scales they
run no paper cell divides a page set or jumps the MRU-C search point.
This test runs a handful of full-scale paper cells and compares every
internal counter of HPE (``HPEStats``, ``HIRStats``, classification,
dynamic adjustment, chain partitions) and of CLOCK-Pro (test
promotions and the hot/cold/non-resident split) against the pinned
``internals_pin.json`` beside it, byte for byte.

The cells are chosen so each exercised mechanism fires: NW divides
page sets, SRD jumps the MRU-C search point and BFS switches strategy.
:func:`test_pinned_cells_exercise_every_mechanism` keeps the pin from
going vacuous.  Regenerate after an intentional semantic change with::

    REPRO_UPDATE_FIXTURES=1 python -m pytest tests/policies/test_internals_pin.py
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Optional

import pytest

from repro.core.hpe import HPEConfig, HPEPolicy
from repro.experiments.runner import run_spec
from repro.policies.clock_pro import ClockProPolicy
from repro.scenarios.spec import ScenarioSpec

PIN = Path(__file__).with_name("internals_pin.json")

SEED = 1
SCALE = 1.0

#: ``(label, app, policy, rate, HPEConfig or None)``.
CELLS: tuple[tuple[str, str, str, float, Optional[HPEConfig]], ...] = (
    ("NW/hpe/0.75", "NW", "hpe", 0.75, None),
    ("NW/hpe/0.5", "NW", "hpe", 0.5, None),
    ("SRD/hpe/0.75", "SRD", "hpe", 0.75, None),
    ("SRD/hpe/0.5", "SRD", "hpe", 0.5, None),
    ("BFS/hpe/0.75", "BFS", "hpe", 0.75, None),
    ("BFS/hpe/0.5", "BFS", "hpe", 0.5, None),
    ("BFS/hpe-nohir/0.5", "BFS", "hpe", 0.5, HPEConfig(use_hir=False)),
    ("SRD/clock-pro/0.75", "SRD", "clock-pro", 0.75, None),
    ("BFS/clock-pro/0.5", "BFS", "clock-pro", 0.5, None),
)


def _hpe_internals(policy: HPEPolicy) -> dict[str, Any]:
    classification = policy.classification
    assert classification is not None
    adjustment = policy.adjustment
    assert adjustment is not None
    adjust = adjustment.stats
    return {
        "hpe_stats": dataclasses.asdict(policy.stats),
        "hir_stats": dataclasses.asdict(policy.hir.stats),
        "category": classification.category.value,
        "census": dataclasses.asdict(classification.census),
        "classification_comparisons": classification.comparisons,
        "adjustment": {
            "strategy": adjustment.strategy.value,
            "jump": adjustment.jump,
            "wrong_evictions_total": adjust.wrong_evictions_total,
            "strategy_switches": adjust.strategy_switches,
            "jump_adjustments": adjust.jump_adjustments,
            "segments": [
                [seg.strategy.value, seg.start_fault, seg.end_fault, seg.jump]
                for seg in adjust.segments
            ],
        },
        "partition_sizes": list(policy.chain.partition_sizes()),
        "intervals": policy.chain.intervals,
        "resident_pages": policy.resident_count(),
        "history_records": len(policy.history),
    }


def _clock_pro_internals(policy: ClockProPolicy) -> dict[str, Any]:
    return {
        "test_promotions": policy.test_promotions,
        "n_hot": policy.n_hot,
        "n_cold": policy.n_cold,
        "n_nonres": policy.n_nonres,
    }


def collect() -> dict[str, Any]:
    """Every pinned cell's internals, keyed by cell label."""
    pinned: dict[str, Any] = {}
    for label, app, policy, rate, hpe_config in CELLS:
        result = run_spec(
            ScenarioSpec(workload=app, policy=policy, rate=rate, seed=SEED,
                         scale=SCALE, hpe_config=hpe_config),
            use_cache=False,
        )
        policy_obj = result.extras["policy"]
        if isinstance(policy_obj, HPEPolicy):
            internals = _hpe_internals(policy_obj)
        else:
            internals = _clock_pro_internals(policy_obj)
        internals["faults"] = result.faults
        internals["evictions"] = result.evictions
        pinned[label] = internals
    return pinned


def render(pinned: dict[str, Any]) -> str:
    return json.dumps(pinned, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def collected() -> dict[str, Any]:
    return collect()


def test_internals_match_pin(collected: dict[str, Any]) -> None:
    text = render(collected)
    if os.environ.get("REPRO_UPDATE_FIXTURES"):
        PIN.write_text(text, encoding="utf-8")
    assert text == PIN.read_text(encoding="utf-8"), (
        "policy internals drifted from internals_pin.json; if the change "
        "is intentional, regenerate with REPRO_UPDATE_FIXTURES=1"
    )


def test_pinned_cells_exercise_every_mechanism() -> None:
    """Divisions, jumps and switches are non-zero in the pin itself."""
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    for rate in ("0.75", "0.5"):
        assert pinned[f"NW/hpe/{rate}"]["hpe_stats"]["divisions"] > 0
        assert pinned[f"SRD/hpe/{rate}"]["adjustment"]["jump_adjustments"] > 0
        assert pinned[f"BFS/hpe/{rate}"]["adjustment"]["strategy_switches"] > 0
    assert pinned["BFS/hpe-nohir/0.5"]["hpe_stats"]["hir_transfers"] == 0
    assert pinned["BFS/hpe-nohir/0.5"]["adjustment"]["strategy_switches"] > 0
    for label in ("SRD/clock-pro/0.75", "BFS/clock-pro/0.5"):
        assert pinned[label]["test_promotions"] > 0
        assert pinned[label]["n_nonres"] > 0
