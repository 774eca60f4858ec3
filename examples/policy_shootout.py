#!/usr/bin/env python3
"""Policy shootout across the six GPU access-pattern types (Fig. 2).

For one representative application of each pattern type, runs every
eviction policy the paper compares (plus FIFO/LFU extras) and prints the
eviction counts normalised to the offline optimum — a compact version of
the paper's Fig. 3 + Fig. 12 analysis.

Run with:  python examples/policy_shootout.py
"""

from repro.experiments.report import format_table
from repro.experiments.runner import run_scenario
from repro.scenarios.spec import MatrixSpec

#: One representative application per pattern type (Table II).
REPRESENTATIVES = {
    "I (streaming)": "GEM",
    "II (thrashing)": "HSD",
    "III (part repetitive)": "PAT",
    "IV (most repetitive)": "BFS",
    "V (repetitive thrashing)": "SGM",
    "VI (region moving)": "B+T",
}

POLICIES = ("lru", "random", "rrip", "clock-pro", "arc", "car",
            "wsclock", "fifo", "lfu", "hpe")


def main() -> None:
    rate = 0.75
    matrix = run_scenario(MatrixSpec(
        ("ideal",) + POLICIES, (rate,), tuple(REPRESENTATIVES.values()),
    ))
    rows = []
    for label, app in REPRESENTATIVES.items():
        ideal = matrix.get(app, "ideal", rate)
        row = [f"{app} {label}"]
        for policy in POLICIES:
            result = matrix.get(app, policy, rate)
            row.append(result.evictions / max(1, ideal.evictions))
        rows.append(row)
    print(format_table(
        ["application"] + list(POLICIES), rows,
        title=f"Evictions normalised to Ideal at {rate:.0%} oversubscription "
              "(lower is better)",
    ))
    print("\nReading the shape: LRU collapses on type II, frequency-based")
    print("policies (RRIP/LFU) mispredict type VI, random is middling")
    print("everywhere, and HPE tracks the best policy per pattern —")
    print("exactly the behaviour HPE's classification machinery targets.")


if __name__ == "__main__":
    main()
