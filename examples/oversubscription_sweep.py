#!/usr/bin/env python3
"""How much oversubscription can demand paging absorb?

Sweeps the oversubscription rate from 95% down to 40% for a thrashing
stencil workload (HSD) and a streaming workload (HOT), printing HPE's and
LRU's slowdown relative to a fully-fitting run.  This extends the paper's
two-point evaluation (75% / 50%) into a full curve — useful when sizing
GPU memory for a workload.

Run with:  python examples/oversubscription_sweep.py
"""

from repro.experiments.report import format_table
from repro.experiments.runner import ResultMatrix, run_scenario
from repro.scenarios.spec import MatrixSpec


def sweep(matrix: ResultMatrix, app: str, rates) -> list[list[object]]:
    baseline = matrix.get(app, "lru", 1.0)
    rows = []
    for rate in rates:
        lru = matrix.get(app, "lru", rate)
        hpe = matrix.get(app, "hpe", rate)
        rows.append([
            f"{rate:.0%}",
            baseline.ipc / lru.ipc,
            baseline.ipc / hpe.ipc,
            hpe.ipc / lru.ipc,
        ])
    return rows


def main() -> None:
    rates = (0.95, 0.85, 0.75, 0.60, 0.50, 0.40)
    # 1.0 is the fully-fitting baseline every slowdown is relative to.
    matrix = run_scenario(MatrixSpec(("lru", "hpe"), (1.0,) + rates,
                                     ("HSD", "HOT")))
    for app, story in (
        ("HSD", "thrashing stencil — LRU collapses as soon as the working "
                "set stops fitting"),
        ("HOT", "pure streaming — any policy degrades gracefully"),
    ):
        rows = sweep(matrix, app, rates)
        print(format_table(
            ["memory", "LRU slowdown", "HPE slowdown", "HPE speedup"],
            rows,
            title=f"{app}: {story}",
        ))
        print()
    print("The crossover story: for streaming workloads the eviction")
    print("policy barely matters, so buy less memory; for iterative")
    print("workloads HPE moves the cliff edge several capacity steps")
    print("to the left compared with LRU.")


if __name__ == "__main__":
    main()
