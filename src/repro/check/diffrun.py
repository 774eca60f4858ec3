"""Differential execution: one trace, both replay loops, every observable.

The simulator has two inner loops — the reference oracle (tier 0) and
the exact fast kernel (tier 1).  This module replays the same trace
through both and reports every observable difference:

* ``key_metrics()`` (the determinism-digest payload);
* the **eviction sequence** (victim pages in eviction order);
* every counter the fast kernel folds in from locals: each TLB's
  :class:`~repro.tlb.tlb.TLBStats` (hits, misses, evictions,
  shootdowns), the walker's walks/hits/faults, and the full
  :class:`~repro.uvm.driver.DriverStats`;
* final structural state: frame map, every page-table entry (valid
  or tombstone), and the exact per-set LRU order of every TLB;
* optionally the **observation event stream** (runs with an event
  sink take the kernel's driver sub-path and must still produce the
  identical stream).

The tiers are compared for **equality** (:func:`compare_levels`).
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
