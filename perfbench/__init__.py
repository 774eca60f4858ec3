"""Repository benchmark for the HPE reproduction.

Times the three ways people use this reproduction: paper-grid cells
through ``run_spec`` (``grid-cells``), seed-sweep matrices through
``run_scenario`` (``seed-sweep``) and single-cell requests to
``hpe-repro serve`` (``serve-mix``).  Run it from the repository root::

    python3 perfbench/run.py --workload grid-cells --seed 1 --seconds 20 --trace 0

``--trace 1`` adds a traced pass and prints the per-layer split instead
of the end-to-end metrics.  The benchmark observes the program only
from outside: it wraps the public entry points of each ``repro.*``
layer and never changes code under ``src/``.  Its own helpers are tested
by ``python3 -m unittest perfbench.test_perfbench``.
"""
