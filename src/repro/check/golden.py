"""Golden key-metrics snapshots for the differential harness.

``tests/diff/test_golden.py`` freezes the exact ``key_metrics()`` of
every policy on every :mod:`repro.check.difftraces` generator at 75%
and 50% memory-to-footprint ratios.  The differential matrix proves the
two simulator tiers agree *with each other*; the goldens pin what
they agree *on*, so a change that shifts both tiers in lockstep (a
semantic regression the differ is blind to) still fails loudly.

Snapshots live in ``tests/diff/golden/<generator>.json``.  After an
intentional semantic change, regenerate with::

    hpe-repro golden --update

and review the JSON diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Sequence, Union

#: The one seed all golden traces derive from — changing it invalidates
#: every snapshot, so it is part of the frozen contract.
GOLDEN_SEED = 101

#: Episodes per golden trace; long enough for eviction chains and HPE
#: interval boundaries, short enough that the full sweep stays quick.
GOLDEN_LENGTH = 2048

#: Memory-to-footprint ratios, matching the paper's headline operating
#: points.
GOLDEN_RATES = (0.75, 0.5)


def default_golden_dir() -> Path:
    """``tests/diff/golden`` for a source checkout of this repo."""
    return Path(__file__).resolve().parents[3] / "tests" / "diff" / "golden"


def _policies() -> "tuple[str, ...]":
    from repro.experiments.runner import POLICY_NAMES

    return POLICY_NAMES


def golden_spec(kind: str, policy: str, rate: float) -> "Any":
    """The :class:`~repro.scenarios.spec.ScenarioSpec` of one golden cell.

    Goldens are ``family="golden"`` scenarios: the generator name is the
    workload and the trace length travels in ``params``, so the snapshot
    identity is derived from the same canonical form as every cache
    fingerprint and run id.  A canonical-form or schema change therefore
    fails the golden check loudly (``spec_digest`` mismatch) instead of
    silently comparing against snapshots of a different identity regime.
    """
    from repro.scenarios.spec import GOLDEN_FAMILY, ScenarioSpec

    return ScenarioSpec(
        workload=kind,
        policy=policy,
        rate=rate,
        seed=GOLDEN_SEED,
        family=GOLDEN_FAMILY,
        params=(("length", GOLDEN_LENGTH),),
    )


def compute_golden(
    kinds: "Optional[Sequence[str]]" = None,
) -> "dict[str, dict[str, Any]]":
    """Run the golden matrix and return ``{generator: snapshot}``.

    Each snapshot records the generator parameters alongside the
    metrics so a stale snapshot (older seed/length) is detected as a
    mismatch rather than silently compared against the wrong trace.
    """
    from repro.check.diffrun import run_level
    from repro.check.difftraces import GENERATORS, build
    from repro.sim.config import resolve_fastpath_level

    level = resolve_fastpath_level(None)
    snapshots: "dict[str, dict[str, Any]]" = {}
    for kind in kinds if kinds is not None else GENERATORS:
        trace = build(kind, GOLDEN_SEED, GOLDEN_LENGTH)
        entries: "dict[str, Any]" = {}
        spec_digests: "dict[str, str]" = {}
        for policy in _policies():
            for rate in GOLDEN_RATES:
                capacity = max(8, int(trace.footprint_pages * rate))
                run = run_level(trace.pages, policy, capacity, level,
                                workload_name=trace.name)
                key = f"{policy}@{rate}"
                entries[key] = run.metrics
                spec_digests[key] = golden_spec(kind, policy, rate).digest()
        snapshots[kind] = {
            "seed": GOLDEN_SEED,
            "length": GOLDEN_LENGTH,
            "footprint_pages": trace.footprint_pages,
            "spec_digests": spec_digests,
            "entries": entries,
        }
    return snapshots


def write_golden(
    directory: "Optional[Union[str, Path]]" = None,
    kinds: "Optional[Sequence[str]]" = None,
) -> "list[Path]":
    """Regenerate the snapshot files (``hpe-repro golden --update``)."""
    directory = Path(directory) if directory is not None \
        else default_golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, snapshot in compute_golden(kinds).items():
        path = directory / f"{kind}.json"
        path.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )
        written.append(path)
    return written


def check_golden(
    directory: "Optional[Union[str, Path]]" = None,
    kinds: "Optional[Sequence[str]]" = None,
) -> "list[str]":
    """Compare a fresh run against the snapshots; return mismatches."""
    directory = Path(directory) if directory is not None \
        else default_golden_dir()
    problems: "list[str]" = []
    fresh = compute_golden(kinds)
    for kind, snapshot in fresh.items():
        path = directory / f"{kind}.json"
        if not path.is_file():
            problems.append(f"{kind}: missing snapshot {path}")
            continue
        with open(path, encoding="ascii") as stream:
            expected = json.load(stream)
        for meta in ("seed", "length", "footprint_pages", "spec_digests"):
            if expected.get(meta) != snapshot[meta]:
                problems.append(
                    f"{kind}: snapshot {meta}={expected.get(meta)!r} "
                    f"but current harness produces {snapshot[meta]!r} "
                    "(regenerate with: hpe-repro golden --update)"
                )
        want = expected.get("entries", {})
        have = snapshot["entries"]
        for key in sorted(set(want) | set(have)):
            if key not in want:
                problems.append(f"{kind}/{key}: not in snapshot")
            elif key not in have:
                problems.append(f"{kind}/{key}: snapshot-only entry")
            elif want[key] != have[key]:
                fields = sorted(
                    field
                    for field in set(want[key]) | set(have[key])
                    if want[key].get(field) != have[key].get(field)
                )
                problems.append(
                    f"{kind}/{key}: metrics differ on {', '.join(fields)}"
                )
    return problems
