"""End-to-end and per-layer metrics of one benchmark run.

Each per-layer metric names the end-to-end metric it should move:

==========================  ==========================================
layer metrics               moves
==========================  ==========================================
``workloads.*``             ``setup_s`` on every workload
``sim.*``                   ``sim_events_per_s``, ``op_ms_p50`` on
                            grid-cells; barely serve-mix
``policy.*``, ``core.hpe.*``  ``sim_events_per_s`` on grid-cells (hpe,
                            clock-pro cells); nothing on seed-sweep
``uvm.*``, ``tlb.*``        counts: a pure speed change leaves them
                            unchanged (``uvm.service_fault_s`` is
                            nonzero only on tier-1 cells)
``cache.*``                 ``op_ms_p50`` on seed-sweep and serve-mix
``orchestration.*``,        ``ops_per_s``, ``op_ms_p50`` on seed-sweep;
``resil.*``                 latency of serve-mix misses
``serve.*``                 ``op_ms_p50``, ``op_ms_p90`` on serve-mix
==========================  ==========================================

Layers that run inside pooled workers or the server process are read
from result ``extras``, server counters and client timing; a layer a
workload does not reach reads 0.  ``cache.put_s`` counts only puts made
in the benchmark process, so it reads 0 where the pool or the server
stores results.
"""

from __future__ import annotations

import resource
import statistics

from perfbench.ops import PAPER_POLICIES
from perfbench.stats import percentile
from perfbench.tracer import Tracer
from perfbench.workloads import Round, Workload

#: End-to-end metrics (``--trace 0``) with their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "sim_events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), grouped by layer.
PER_LAYER = [
    "workloads.trace_build_s", "workloads.traces_built",
    "sim.run_s", "sim.self_s", "sim.events",
    "sim.cells_tier0", "sim.cells_tier1", "sim.cells_tier2",
    "sim.cells_tier3",
    *(f"policy.{p}.{kind}" for p in PAPER_POLICIES
      for kind in ("callback_s", "calls")),
    "core.hpe.searches", "core.hpe.comparisons_total", "core.hpe.divisions",
    "core.hpe.hir_transfers",
    "uvm.faults", "uvm.evictions", "uvm.bytes_moved", "uvm.service_fault_s",
    "tlb.l1_hits", "tlb.l2_hits", "tlb.walker_hits",
    "cache.get_s", "cache.put_s", "cache.hits", "cache.misses",
    "cache.stores",
    "orchestration.self_s", "orchestration.trace_publish_s",
    "resil.journal_append_s", "resil.journal_appends", "resil.retries",
    "serve.server_ms_p50", "serve.transport_ms_p50", "serve.deduped",
    "serve.shed", "serve.completed",
    "tracing.overhead_pct",
]


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def simulated_events(round_: Round) -> int:
    """Trace events replayed by cells that actually simulated."""
    served = round_.facts.get("events")
    if served is not None:  # serve-mix: each distinct answered cell once
        return sum(served.values())
    return sum(cell.events for record in round_.records
               for cell in record.cells)


def end_to_end(rounds: list[Round], setup_samples: list[float],
               ) -> dict[str, float]:
    """End-to-end metrics over rounds of identical work, every time on
    the calibrated scale (:mod:`perfbench.calibrate`).

    An op's latency is its median over the rounds, and a round's length
    is the median round's.  Every round runs the same ops from the same
    cold state, so the median filters interruptions, and unlike the
    best round it does not read faster the more rounds a run has time
    for; calibration takes out the slower swings of host speed.
    """
    latencies = [
        statistics.median(round_.records[index].calibrated_s
                          for round_ in rounds) * 1000.0
        for index in range(len(rounds[0].records))
    ]
    round_s = statistics.median(round_.calibrated_s for round_ in rounds)
    completed = statistics.median(
        sum(1 for record in round_.records if record.ok) for round_ in rounds)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": completed / round_s,
        "op_ms_p50": percentile(latencies, 0.5),
        "op_ms_p90": percentile(latencies, 0.9),
        "sim_events_per_s": simulated_events(rounds[0]) / round_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def per_layer(workload: Workload, untraced: Round, traced: Round,
              tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the traced round."""
    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    records = traced.records
    cells = [cell for record in records for cell in record.cells]
    values["workloads.trace_build_s"] = tracer.total("workloads.trace_build")
    values["workloads.traces_built"] = tracer.calls("workloads.trace_build")

    in_process = tracer.calls("sim.run") > 0
    values["sim.run_s"] = (tracer.total("sim.run") if in_process
                           else sum(cell.elapsed_s for cell in cells))
    values["sim.self_s"] = tracer.self_total("sim.run")
    values["sim.events"] = simulated_events(traced)
    for cell in cells:
        values[f"sim.cells_tier{cell.tier}"] += 1
    for policy in PAPER_POLICIES:
        values[f"policy.{policy}.callback_s"] = tracer.total(
            f"policy.{policy}")
        values[f"policy.{policy}.calls"] = tracer.calls(f"policy.{policy}")
    for cell in cells:
        if cell.hpe is not None:
            for stat in ("searches", "comparisons_total", "divisions",
                         "hir_transfers"):
                values[f"core.hpe.{stat}"] += cell.hpe[stat]
        driver = cell.metrics["driver"]
        values["uvm.faults"] += driver["faults"]
        values["uvm.evictions"] += driver["evictions"]
        values["uvm.bytes_moved"] += (driver["bytes_migrated_in"]
                                      + driver["bytes_evicted_out"])
        values["tlb.l1_hits"] += cell.metrics["l1_tlb_hits"]
        values["tlb.l2_hits"] += cell.metrics["l2_tlb_hits"]
        values["tlb.walker_hits"] += cell.metrics["walker_hits"]
    values["uvm.service_fault_s"] = tracer.total("uvm.service_fault")

    values["cache.get_s"] = tracer.total("cache.get")
    values["cache.put_s"] = tracer.total("cache.put")
    values["cache.hits"] = traced.facts.get("cache_hits", 0)
    values["cache.misses"] = traced.facts.get("cache_misses", 0)
    cache_dir = traced.facts.get("cache_dir")
    if cache_dir is not None:
        values["cache.stores"] = sum(
            1 for _ in (cache_dir / "results").rglob("*.pkl"))

    if tracer.calls("orchestration.run_scenario"):
        # The matrix's wall time minus its cells' replay time; the cells
        # replay side by side on the pool, so their sum is shared out.
        jobs = getattr(workload, "jobs", 1)
        values["orchestration.self_s"] = sum(
            max(0.0, record.latency_s - sum(c.elapsed_s for c in record.cells)
                / max(1, min(jobs, len(record.cells))))
            for record in records
        )
    values["orchestration.trace_publish_s"] = tracer.total(
        "orchestration.trace_publish")
    values["resil.journal_append_s"] = tracer.total("resil.journal_append")
    values["resil.journal_appends"] = tracer.calls("resil.journal_append")
    values["resil.retries"] = sum(record.facts.get("retries", 0)
                                  for record in records)

    served = [record for record in records if record.server_s is not None]
    if served:
        values["serve.server_ms_p50"] = _p50_ms(
            [record.server_s for record in served])
        values["serve.transport_ms_p50"] = _p50_ms(
            [record.latency_s - record.server_s for record in served])
        counters = traced.facts.get("server_counters", {})
        values["serve.deduped"] = counters.get("serve.deduped", 0)
        values["serve.shed"] = (counters.get("serve.shed.queue", 0)
                                + counters.get("serve.shed.rate", 0))
        values["serve.completed"] = counters.get("serve.completed", 0)

    base = _p50_ms([r.calibrated_s for r in untraced.records])
    observed = _p50_ms([r.calibrated_s for r in records])
    values["tracing.overhead_pct"] = (observed / base - 1.0) * 100.0 \
        if base else 0.0
    return values


def tier_audit(untraced: Round, traced: Round) -> list[str]:
    """Cells whose executed tier changed because they were traced."""
    before = untraced.tier_map()
    after = traced.tier_map()
    return [
        f"{key}: tier {before[key]} untraced, {after.get(key)} traced"
        for key in sorted(before)
        if after.get(key) != before[key]
    ] + [f"{key}: only in the traced run" for key in sorted(after)
         if key not in before]


def tier_mix(round_: Round) -> dict[str, int]:
    mix: dict[str, int] = {}
    for record in round_.records:
        for cell in record.cells:
            name = f"tier{cell.tier}"
            mix[name] = mix.get(name, 0) + 1
    return dict(sorted(mix.items()))


def format_value(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"
