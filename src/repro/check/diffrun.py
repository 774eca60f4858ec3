"""Differential execution: one run, three loops, bounded drift.

The simulator has three inner loops — the reference oracle (tier 0),
the exact fast kernel (tier 1), and the relaxed *metric-equivalent*
kernel (tier 3, :mod:`repro.sim.fastpath3`).  This module replays the
same trace through any subset of them and reports every observable
difference:

* ``key_metrics()`` (the determinism-digest payload);
* the **eviction sequence** (victim pages in eviction order);
* every counter the fast kernel folds in from locals: each TLB's
  :class:`~repro.tlb.tlb.TLBStats` (hits, misses, evictions,
  shootdowns), the walker's walks/hits/faults, and the full
  :class:`~repro.uvm.driver.DriverStats`;
* final structural state: frame map, every page-table entry (valid
  or tombstone), and the exact per-set LRU order of every TLB;
* optionally the **observation event stream** (observed runs take the
  kernel's driver sub-path and must still produce the identical
  stream).

Tiers 0 and 1 are compared for **equality** (:func:`compare_levels`).
Tier 3 is compared under the declared §13 tolerance table instead
(:func:`compare_relaxed`): a fixed set of identity metrics must stay
exact, every drifting metric must land inside its
:class:`Tolerance`, and the executed tier is checked so a silent
fallback can never masquerade as a passing relaxed run.
:func:`check_trend` adds the golden *trend* gate — a policy ordering
that is decisive at the reference tier (HPE beats LRU, say) must
survive the relaxation.

``tests/diff`` drives this against the seeded generators in
:mod:`repro.check.difftraces`; ``scripts/_diffcheck.py``-style ad-hoc
sweeps can call :func:`compare_levels` directly.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.policies.lru import LRUPolicy
from repro.sim.engine import UVMSimulator
from repro.sim.results import SimulationResult


class _RecordingChain(OrderedDict):
    """An LRU chain that logs left-end pops (= LRU victim selections).

    The fast kernels inline the stock LRU policy's victim pop
    (``_chain.popitem(last=False)``) without calling
    ``select_victim``, so recording at the chain level sees every
    eviction on every tier through the same probe.
    """

    def __init__(self, log: "list[int]") -> None:
        super().__init__()
        self.log = log

    def popitem(  # type: ignore[override]
        self, last: bool = True
    ) -> "tuple[int, Any]":
        item = OrderedDict.popitem(self, last)
        if not last:
            self.log.append(item[0])
        return item


class MemoryEventSink:
    """Duck-typed stand-in for ``JSONLEventTrace`` collecting in memory."""

    def __init__(self) -> None:
        self.events: "list[tuple[str, tuple]]" = []

    def emit(self, event_type: str, **fields: object) -> None:
        self.events.append((event_type, tuple(sorted(fields.items()))))

    def close(self) -> None:
        pass


@dataclass
class LevelRun:
    """Everything observable from one tier's replay."""

    level: int
    metrics: "dict[str, Any]"
    evictions: "list[int]"
    frame_map: "dict[int, int]"
    page_table: "dict[int, tuple[int, bool, int, int]]"
    tlb_orders: "list[tuple[int, ...]]"
    #: ``(name, hits, misses, evictions, shootdowns)`` per TLB, L1s in
    #: SM order then the L2.
    tlb_stats: "list[tuple[str, int, int, int, int]]"
    #: The walker's ``(walks, hits, faults)``.
    walker_counts: "tuple[int, int, int]"
    #: Every :class:`~repro.uvm.driver.DriverStats` field.
    driver_stats: "dict[str, int]"
    events: "Optional[list[tuple[str, tuple]]]" = None
    result: Optional[SimulationResult] = None

    @property
    def executed_tier(self) -> Optional[int]:
        """The tier that actually replayed the trace, if recorded.

        ``None`` when the engine predates the ``extras["fastpath"]``
        record (or the result was not captured); otherwise the executed
        level after any eligibility fallback — compare against
        :attr:`level` to detect a silent downgrade.
        """
        if self.result is None:
            return None
        record = self.result.extras.get("fastpath")
        if not isinstance(record, dict):
            return None
        executed = record.get("executed")
        return int(executed) if executed is not None else None


@dataclass
class DiffReport:
    """Comparison of one trace across tiers; empty ``mismatches`` = ok."""

    policy: str
    capacity: int
    runs: "list[LevelRun]" = field(default_factory=list)
    mismatches: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _structural_state(sim: UVMSimulator) -> tuple:
    """(frame map, page-table entries, per-set TLB orders) after a run.

    Invalid page-table entries are tombstones of evicted pages; both
    exact tiers keep them, so they are part of the comparison.
    """
    frame_map = dict(sim.frame_pool._frame_of_page)
    page_table = {
        page: (entry.frame, entry.valid, entry.faulted_at, entry.walk_hits)
        for page, entry in sim.page_table._entries.items()
    }
    orders: "list[tuple[int, ...]]" = []
    for tlb in [*sim.hierarchy.l1_tlbs, sim.hierarchy.l2_tlb]:
        for entries in tlb._sets:
            orders.append(tuple(entries))
    return frame_map, page_table, orders


def _counters(sim: UVMSimulator) -> tuple:
    """(per-TLB stats, walker counts, driver stats) after a run."""
    tlb_stats = [
        (tlb.config.name, tlb.stats.hits, tlb.stats.misses,
         tlb.stats.evictions, tlb.stats.shootdowns)
        for tlb in [*sim.hierarchy.l1_tlbs, sim.hierarchy.l2_tlb]
    ]
    walker = sim.walker
    return (
        tlb_stats,
        (walker.walks, walker.hits, walker.faults),
        dataclasses.asdict(sim.driver.stats),
    )


def run_level(
    pages: Sequence[int],
    policy_name: str,
    capacity: int,
    level: int,
    *,
    seed: int = 7,
    observe: bool = False,
    sanitize: bool = False,
    prefetch_degree: int = 0,
    workload_name: str = "diff",
) -> LevelRun:
    """Replay ``pages`` once at ``level`` and capture every observable."""
    from repro.experiments.runner import make_policy
    from repro.obs import Observation

    policy = make_policy(policy_name, capacity, seed=seed)
    eviction_log: "list[int]" = []
    if type(policy) is LRUPolicy:
        # Chain-level probe: sees both select_victim and the kernel's
        # inlined pop, without perturbing the exact-type specialization.
        policy._chain = _RecordingChain(eviction_log)
    else:
        original_select = policy.select_victim

        def recording_select() -> int:
            victim = original_select()
            eviction_log.append(victim)
            return victim

        policy.select_victim = recording_select  # type: ignore[method-assign]
    sink = MemoryEventSink() if observe else None
    observation = Observation(trace=sink) if observe else None  # type: ignore[arg-type]
    simulator = UVMSimulator(policy, capacity, obs=observation,
                             sanitize=sanitize,
                             prefetch_degree=prefetch_degree)
    result = simulator.run(list(pages), workload_name=workload_name,
                           fast=level)
    frame_map, page_table, orders = _structural_state(simulator)
    tlb_stats, walker_counts, driver_stats = _counters(simulator)
    return LevelRun(
        level=level,
        metrics=result.key_metrics(),
        evictions=eviction_log,
        frame_map=frame_map,
        page_table=page_table,
        tlb_orders=orders,
        tlb_stats=tlb_stats,
        walker_counts=walker_counts,
        driver_stats=driver_stats,
        events=sink.events if sink is not None else None,
        result=result,
    )


def compare_levels(
    pages: Sequence[int],
    policy_name: str,
    capacity: int,
    *,
    levels: Sequence[int] = (0, 1),
    seed: int = 7,
    observe: bool = False,
    sanitize: bool = False,
    prefetch_degree: int = 0,
    workload_name: str = "diff",
) -> DiffReport:
    """Replay at each tier and diff every observable against tier 0."""
    report = DiffReport(policy=policy_name, capacity=capacity)
    for level in levels:
        report.runs.append(run_level(
            pages, policy_name, capacity, level,
            seed=seed, observe=observe, sanitize=sanitize,
            prefetch_degree=prefetch_degree,
            workload_name=workload_name,
        ))
    reference = report.runs[0]
    for run in report.runs[1:]:
        tag = f"level {run.level} vs {reference.level} [{policy_name}]"
        if run.metrics != reference.metrics:
            diff_keys = sorted(
                key
                for key in set(run.metrics) | set(reference.metrics)
                if run.metrics.get(key) != reference.metrics.get(key)
            )
            report.mismatches.append(f"{tag}: key_metrics differ on "
                                     f"{', '.join(diff_keys)}")
        if run.evictions != reference.evictions:
            where = next(
                (index for index, (a, b) in
                 enumerate(zip(run.evictions, reference.evictions))
                 if a != b),
                min(len(run.evictions), len(reference.evictions)),
            )
            report.mismatches.append(
                f"{tag}: eviction sequences diverge at index {where} "
                f"(lengths {len(run.evictions)} vs "
                f"{len(reference.evictions)})"
            )
        if run.frame_map != reference.frame_map:
            report.mismatches.append(f"{tag}: final frame maps differ")
        if run.page_table != reference.page_table:
            report.mismatches.append(f"{tag}: page-table entries differ")
        if run.tlb_orders != reference.tlb_orders:
            report.mismatches.append(f"{tag}: TLB set contents/order "
                                     "differ")
        for ours, theirs in zip(run.tlb_stats, reference.tlb_stats):
            if ours != theirs:
                report.mismatches.append(
                    f"{tag}: {ours[0]} stats differ "
                    f"(hits/misses/evictions/shootdowns {ours[1:]} vs "
                    f"{theirs[1:]})"
                )
        if run.walker_counts != reference.walker_counts:
            report.mismatches.append(
                f"{tag}: walker walks/hits/faults differ "
                f"({run.walker_counts} vs {reference.walker_counts})"
            )
        if run.driver_stats != reference.driver_stats:
            diff_keys = sorted(
                key for key in reference.driver_stats
                if run.driver_stats.get(key) != reference.driver_stats[key]
            )
            report.mismatches.append(f"{tag}: driver stats differ on "
                                     f"{', '.join(diff_keys)}")
        if run.events != reference.events:
            report.mismatches.append(f"{tag}: observation event streams "
                                     "differ")
    return report


# --- tolerance-gated comparison for the relaxed tier ---------------------


@dataclass(frozen=True)
class Tolerance:
    """Allowed drift for one metric: relative bound with an absolute floor.

    A drift passes when ``|actual - reference|`` is at most
    ``max(atol, rtol * |reference|)``.  The absolute floor keeps
    small-base metrics honest: a walker-hit count of 2 vs 4 is 100%
    relative drift but is noise, while the same ratio on a count of
    40 000 is a real divergence the relative bound catches.
    """

    rtol: float
    atol: float = 0.0

    def allows(self, actual: float, reference: float) -> bool:
        return abs(actual - reference) <= max(
            self.atol, self.rtol * abs(reference)
        )


#: ``key_metrics()`` entries that must stay **exact** at every tier,
#: including the relaxed one (DESIGN §13): run identity, trace shape,
#: and the eviction-independent counters.
EXACT_METRICS: "tuple[str, ...]" = (
    "policy", "workload", "capacity_pages", "footprint_pages",
    "trace_length", "instructions",
)

#: Driver counters that must stay exact (first-touch classification and
#: prefetch issue do not depend on victim choice).
EXACT_DRIVER_METRICS: "tuple[str, ...]" = (
    "compulsory_faults", "prefetches",
)

#: The §13 tolerance table for tier 3, keyed by flattened metric name
#: (``driver.*`` for the driver block).  Calibrated against the worst
#: measured drift over the full generator × policy × seed × rate matrix
#: (see DESIGN §13.3) with roughly 2× relative headroom; the absolute
#: floors absorb small-base noise (counts in the tens).
RELAXED_TOLERANCES: "dict[str, Tolerance]" = {
    "cycles": Tolerance(rtol=0.06),
    "l1_tlb_hits": Tolerance(rtol=0.12, atol=64),
    "l2_tlb_hits": Tolerance(rtol=0.12, atol=64),
    "walker_hits": Tolerance(rtol=0.10, atol=64),
    "driver.faults": Tolerance(rtol=0.06, atol=8),
    # Loosest entry by design: whether a fault is *capacity* depends on
    # whether the page was ever evicted, so a reordered victim turns a
    # never-faulting page into a refaulting one — total faults stay
    # within 6% but their classification moves the most.
    "driver.capacity_faults": Tolerance(rtol=0.20, atol=48),
    "driver.evictions": Tolerance(rtol=0.10, atol=16),
    "driver.bytes_migrated_in": Tolerance(rtol=0.06, atol=65536),
    "driver.bytes_evicted_out": Tolerance(rtol=0.10, atol=65536),
}


def flatten_metrics(metrics: "dict[str, Any]") -> "dict[str, Any]":
    """``key_metrics()`` with the ``driver`` block inlined as ``driver.*``."""
    flat: "dict[str, Any]" = {}
    for key, value in metrics.items():
        if key == "driver" and isinstance(value, dict):
            for sub, subvalue in value.items():
                flat[f"driver.{sub}"] = subvalue
        else:
            flat[key] = value
    return flat


def relaxed_drift(
    reference: "dict[str, Any]", relaxed: "dict[str, Any]"
) -> "dict[str, float]":
    """Per-metric relative drift of ``relaxed`` against ``reference``.

    Both arguments are ``key_metrics()`` dicts; only the metrics in
    :data:`RELAXED_TOLERANCES` are reported.  The denominator is
    floored at 1 so zero-reference cells stay finite.
    """
    ref_flat = flatten_metrics(reference)
    rel_flat = flatten_metrics(relaxed)
    return {
        key: abs(rel_flat[key] - ref_flat[key]) / max(1.0, abs(ref_flat[key]))
        for key in RELAXED_TOLERANCES
    }


def compare_relaxed(
    pages: Sequence[int],
    policy_name: str,
    capacity: int,
    *,
    reference_level: int = 1,
    relaxed_level: int = 3,
    tolerances: "Optional[dict[str, Tolerance]]" = None,
    expect_executed: Optional[int] = 3,
    seed: int = 7,
    workload_name: str = "diff",
) -> DiffReport:
    """Gate the relaxed tier against a bit-exact tier under the §13 table.

    Three checks, in order of severity:

    1. every metric in :data:`EXACT_METRICS` / :data:`EXACT_DRIVER_METRICS`
       must be **equal** — these are exact even under relaxation;
    2. every metric in the tolerance table must drift within its
       :class:`Tolerance`;
    3. when ``expect_executed`` is not ``None``, the relaxed run must
       report that executed tier in ``extras["fastpath"]`` — a silent
       eligibility fallback to a bit-exact tier would otherwise pass
       the drift gate vacuously and hide that nothing was tested.

    Structural state and eviction sequences are deliberately **not**
    compared: the relaxed kernel's victim batching is allowed to change
    both (that is the §13 contract), and HPE's batched drain bypasses
    ``select_victim`` so its eviction log is empty at tier 3.
    """
    table = RELAXED_TOLERANCES if tolerances is None else tolerances
    report = DiffReport(policy=policy_name, capacity=capacity)
    reference = run_level(pages, policy_name, capacity, reference_level,
                          seed=seed, workload_name=workload_name)
    relaxed = run_level(pages, policy_name, capacity, relaxed_level,
                        seed=seed, workload_name=workload_name)
    report.runs = [reference, relaxed]
    tag = f"level {relaxed_level} vs {reference_level} [{policy_name}]"
    if expect_executed is not None:
        executed = relaxed.executed_tier
        if executed != expect_executed:
            report.mismatches.append(
                f"{tag}: executed tier {executed} != expected "
                f"{expect_executed} (silent fallback)"
            )
    ref_flat = flatten_metrics(reference.metrics)
    rel_flat = flatten_metrics(relaxed.metrics)
    for key in EXACT_METRICS:
        if ref_flat.get(key) != rel_flat.get(key):
            report.mismatches.append(
                f"{tag}: exact metric {key} differs "
                f"({rel_flat.get(key)!r} != {ref_flat.get(key)!r})"
            )
    for sub in EXACT_DRIVER_METRICS:
        key = f"driver.{sub}"
        if ref_flat.get(key) != rel_flat.get(key):
            report.mismatches.append(
                f"{tag}: exact metric {key} differs "
                f"({rel_flat.get(key)!r} != {ref_flat.get(key)!r})"
            )
    for key, tolerance in sorted(table.items()):
        ref_value = ref_flat.get(key)
        rel_value = rel_flat.get(key)
        if ref_value is None or rel_value is None:
            report.mismatches.append(f"{tag}: metric {key} missing")
            continue
        if not tolerance.allows(rel_value, ref_value):
            drift = abs(rel_value - ref_value) / max(1.0, abs(ref_value))
            report.mismatches.append(
                f"{tag}: {key} drifted {drift:.4f} "
                f"({rel_value} vs {ref_value}, rtol={tolerance.rtol}, "
                f"atol={tolerance.atol})"
            )
    return report


def check_trend(
    pages: Sequence[int],
    capacity: int,
    *,
    metric: str = "cycles",
    better: str = "hpe",
    worse: str = "lru",
    relaxed_level: int = 3,
    reference_level: int = 1,
    seed: int = 7,
    workload_name: str = "diff",
) -> Optional[str]:
    """Does a decisive policy ordering survive the relaxed tier?

    Runs ``better`` and ``worse`` at both tiers and, **iff** the
    reference-tier ordering is decisive (the gap exceeds the metric's
    relative tolerance, so tier drift cannot legitimately flip it),
    requires the relaxed tier to preserve it.  Returns ``None`` when the
    trend holds or the reference gap is inside the noise band, else a
    message describing the flip.  This is the qualitative half of the
    §13 gate: HPE must still beat LRU everywhere it beat it exactly.
    """
    tolerance = RELAXED_TOLERANCES.get(metric, Tolerance(rtol=0.05))
    values: "dict[tuple[str, int], float]" = {}
    for policy_name in (better, worse):
        for level in (reference_level, relaxed_level):
            run = run_level(pages, policy_name, capacity, level,
                            seed=seed, workload_name=workload_name)
            values[(policy_name, level)] = flatten_metrics(run.metrics)[metric]
    ref_better = values[(better, reference_level)]
    ref_worse = values[(worse, reference_level)]
    # Decisive = the gap survives worst-case drift on both sides.
    margin = tolerance.rtol * (abs(ref_better) + abs(ref_worse))
    if ref_worse - ref_better <= max(margin, 2 * tolerance.atol):
        return None
    rel_better = values[(better, relaxed_level)]
    rel_worse = values[(worse, relaxed_level)]
    if rel_better < rel_worse:
        return None
    return (
        f"trend flip on {metric}: {better} beat {worse} at tier "
        f"{reference_level} ({ref_better} < {ref_worse}) but not at tier "
        f"{relaxed_level} ({rel_better} >= {rel_worse})"
    )


# --- failure shrinking and the regression corpus -------------------------


def shrink_failure(
    pages: Sequence[int],
    policy_name: str,
    capacity: int,
    *,
    levels: Sequence[int] = (0, 1),
    seed: int = 7,
    still_fails: "Optional[Callable[[list[int]], bool]]" = None,
) -> "list[int]":
    """ddmin-lite: delete chunks while the tier mismatch reproduces.

    ``capacity`` stays **absolute** during shrinking — recomputing it
    from the shrinking trace's footprint would change the scenario under
    test and mask the bug.  The result is 1-minimal with respect to
    single-chunk deletion, which in practice collapses a 4096-episode
    trace to a few dozen episodes — small enough to read and to check
    in under :data:`CORPUS_DIR`-style directories.
    """
    if still_fails is None:
        def still_fails(candidate: "list[int]") -> bool:
            if not candidate:
                return False
            try:
                return not compare_levels(
                    candidate, policy_name, capacity,
                    levels=levels, seed=seed,
                ).ok
            except Exception:
                # A crash in any tier is also a reportable divergence.
                return True

    current = list(pages)
    if not still_fails(current):
        return current
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        removed_any = False
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if candidate and still_fails(candidate):
                current = candidate
                removed_any = True
            else:
                index += chunk
        if chunk == 1:
            if not removed_any:
                break
        else:
            chunk //= 2
    return current


def save_corpus_entry(
    directory: Union[str, Path],
    name: str,
    *,
    policy: str,
    capacity: int,
    pages: Sequence[int],
    description: str,
    seed: int = 7,
) -> Path:
    """Persist a shrunk repro so the mismatch stays fixed forever."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(
        {
            "name": name,
            "policy": policy,
            "capacity": capacity,
            "seed": seed,
            "description": description,
            "pages": list(pages),
        },
        indent=2,
    ) + "\n", encoding="ascii")
    return path


def iter_corpus(
    directory: Union[str, Path],
) -> "Iterator[dict[str, Any]]":
    """Yield every checked-in repro under ``directory`` (sorted)."""
    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="ascii") as stream:
            entry = json.load(stream)
        entry.setdefault("seed", 7)
        entry["_path"] = str(path)
        yield entry
