"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid-cells --seed 1 --seconds 20 --trace 0

Workloads: ``grid-cells``, ``seed-sweep``, ``serve-mix`` (see
:mod:`perfbench.workloads`).  ``--trace 0`` times the workload's
fixed window of ops in rounds, each from a cold set-up, until the ops
took ``--seconds`` (and at least two rounds), and prints the end-to-end
metrics; every time, ``--seconds`` too, is on the host-speed calibrated
scale of :mod:`perfbench.calibrate`.  ``--trace 1`` runs one round
untraced, then one traced, and prints the per-layer split.  Either way
the outputs are checked, and the last line of standard output is one
JSON object::

    {"correct": true, "attempted": 828, "failed": 0, "metrics": {...}}

Scratch files (fresh caches, server logs, spans, full results) go under
``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Rounds per ``--trace 0`` run, at least (so each op has a true
#: median); more while time is left.
MIN_ROUNDS = 3

WORKLOAD_NAMES = ("grid-cells", "seed-sweep", "serve-mix")


def pin_environment(workload: str, work: Path) -> None:
    """Clear every ``REPRO_*`` knob, then fix the ones that pick a code
    path, so ambient config or a stale cache cannot change what runs.

    Children (pool workers, the server, set-up probes) inherit this.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ.update({
        "REPRO_OBS": "0",
        "REPRO_SANITIZE": "0",
        "REPRO_JOBS": "1",
        "REPRO_CACHE": "0" if workload == "grid-cells" else "1",
        "REPRO_CACHE_DIR": str(work / "cache"),
        "TMPDIR": str(tmp),
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
               if p]
        ),
    })
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    return args


def run_round(workload, tracer=None):
    """Set up, run and tear down one round of ``workload``."""
    setup_s = workload.setup()
    try:
        round_ = workload.run(tracer)
    finally:
        facts = workload.teardown()
    round_.facts.update(facts)
    round_.setup_s = setup_s
    return round_


def child_pids() -> list[int]:
    """Live (non-zombie) processes whose parent is this process."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            children.append(int(entry.name))
    return children


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Pool workers, set-up probes and the server are stopped where they
    are started.  What is left is multiprocessing's resource tracker,
    which publishing shared-memory traces starts and which would
    otherwise outlive this process: closing its pipe makes it unlink
    any segment still registered and exit.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    from perfbench.layers import format_value

    print(f"  {name:<32} {format_value(value):>14} {unit:<6} {note}".rstrip())


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    name = args.setup_probe or args.workload
    work = WORK / f"{name}-{args.seed}-{os.getpid()}"
    pin_environment(name, work)
    try:
        if args.setup_probe:
            from perfbench.workloads import WORKLOADS

            WORKLOADS[name](args.seed, work).setup()
            return 0
        return benchmark(args, work)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)


def benchmark(args: argparse.Namespace, work: Path) -> int:
    from perfbench import calibrate, layers
    from perfbench.stats import samples_beyond
    from perfbench.tracer import Tracer, instrument
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, work)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    samples: list[float] = []
    if args.trace == 0:
        samples = [workload.probe_setup() for _ in range(SETUP_REPEATS)]
        # Seconds on the calibrated scale, so a slow spell of the host
        # does not cost a round.
        rounds = []
        while len(rounds) < MIN_ROUNDS \
                or sum(r.calibrated_s for r in rounds) < args.seconds:
            rounds.append(run_round(workload))
        problems = workload.check(rounds[0])
        metrics = layers.end_to_end(rounds, samples)
        units = layers.END_TO_END
    else:
        untraced = run_round(workload)
        tracer = Tracer()
        wrappers = instrument(tracer)
        try:
            traced = run_round(workload, tracer)
        finally:
            wrappers.remove()
        rounds = [untraced, traced]
        problems = workload.check(traced) + layers.tier_audit(untraced, traced)
        metrics = layers.per_layer(workload, untraced, traced, tracer)
        units = {metric: layers.unit_of(metric) for metric in metrics}
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json")

    digest = workload.digest(rounds[0])
    problems += [f"round {number} key metrics differ from round 1"
                 for number, round_ in enumerate(rounds[1:], 2)
                 if workload.digest(round_) != digest]
    problems += [f"round {number}: worker pid {pid} outlived the server"
                 for number, round_ in enumerate(rounds, 1)
                 for pid in round_.facts.get("leaked", [])]
    records = [record for round_ in rounds for record in round_.records]
    failed_ops = [record for record in records if not record.ok]
    attempted = len(records)
    failed = len(failed_ops) + len(problems)
    count = len(rounds[0].records)
    print(f"  {len(rounds)} rounds of {count} ops: {attempted} attempted, "
          f"{len(failed_ops)} failed, {len(problems)} output mismatches; "
          "round wall " + " ".join(f"{r.wall_s:.2f}" for r in rounds)
          + " s raw, " + " ".join(f"{r.calibrated_s:.2f}" for r in rounds)
          + " s calibrated; in-process set-up "
          + " ".join(f"{r.setup_s:.3f}" for r in rounds) + " s")
    references = [record.reference_s for record in records]
    print(f"  reference kernel {min(references) * 1000:.3f} .. "
          f"{statistics.median(references) * 1000:.3f} .. "
          f"{max(references) * 1000:.3f} ms (min .. median .. max; "
          f"{calibrate.NOMINAL_S * 1000:g} ms defines the calibrated scale)")
    shares = [r.facts["cpu_share"] for r in rounds if "cpu_share" in r.facts]
    if shares:
        print("  CPU share of client time per round (the part calibrated): "
              + " ".join(f"{share:.2f}" for share in shares))
    for metric, value in metrics.items():
        note = ""
        if metric == "setup_s":
            note = (f"median of {len(samples)} cold set-ups "
                    f"[{min(samples):.3f} .. {max(samples):.3f}]")
        elif metric in ("op_ms_p50", "op_ms_p90"):
            q = 0.5 if metric.endswith("p50") else 0.9
            note = (f"n={count} ops, median of {len(rounds)} rounds each, "
                    f"{samples_beyond(count, q)} beyond")
        print_metric(metric, value, units[metric], note)
    print_metric("failed_share", failed / attempted, "share",
                 f"{failed}/{attempted}")
    mix = layers.tier_mix(rounds[-1])
    print("  executed-tier mix per round: "
          + (" ".join(f"{k}={v}" for k, v in mix.items())
             or "n/a (cells run in the server)"))
    print(f"  key-metrics digest: {digest}")
    for problem in problems[:20]:
        print(f"perfbench: mismatch: {problem}", file=sys.stderr)
    for record in failed_ops[:20]:
        print(f"perfbench: op {record.index} failed: {record.error}",
              file=sys.stderr)

    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"results-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "workload": args.workload, "seed": args.seed, "trace": args.trace,
         "metrics": metrics, "tier_mix": mix, "digest": digest,
         "attempted": attempted, "failed": failed, "problems": problems,
         "setup_samples": samples,
     }, indent=2, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
