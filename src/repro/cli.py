"""Command-line interface: ``hpe-repro`` / ``python -m repro``.

Subcommands
-----------
``list``
    Show the 23 applications with their pattern types.
``run``
    Run one (application × policy × rate) simulation and print metrics.
``figure``
    Regenerate one of the paper's figures (3, 7-15).
``table``
    Regenerate one of the paper's tables (1-3).
``sensitivity``
    Run a Section V-A/B sensitivity study.
``overhead``
    Run a Section V-C overhead analysis.
``ablation``
    Run the design-choice ablations (DESIGN.md).
``trace``
    With ``--app/--out``: dump an application's page-touch trace to a
    file.  With positionals (``trace STN hpe 0.75``): run one observed
    simulation and record a JSONL *event* trace.
``stats``
    Dump the observability metrics registry (optionally after one run).
``analyze``
    Reuse-distance / pattern analysis of an application or trace file.
``cache``
    Inspect or clear the persistent result cache.
``check``
    Correctness tooling: ``check invariants APP [POLICY] [RATE]`` runs
    one simulation under the runtime sanitizer; ``check determinism``
    replays it twice and diffs the metric digests; ``check journal
    [RUN_ID]`` validates run-journal files against their schema.
``scenarios``
    The named scenario registry: ``scenarios list`` shows every
    registered experiment, ``scenarios show NAME`` prints its spec and
    hashes, ``scenarios run NAME`` executes it through the journaled
    matrix engine, and ``scenarios verify`` checks every registered
    spec hash against the committed manifest (run in CI).
``resume``
    Resume an interrupted matrix run from its journal (or list the
    runs on disk when no id is given).
``lint``
    Run the repo-specific AST lint pass (REP001–REP013, including the
    whole-program flow rules and the stale-noqa audit;
    ``--statistics`` prints per-rule counts).
``flow``
    The whole-program flow analyzer: ``flow graph`` prints the
    fault-path closure, ``flow staleness`` fails when the closure
    changed without a re-pin (REP009), ``flow pin`` rewrites the
    checked-in manifest after a reviewed change.
``typecheck``
    Run the strict typing gate (mypy when installed, plus the AST
    annotation-completeness check).
``all``
    Regenerate everything (used to refresh EXPERIMENTS.md data).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Optional, Sequence

from repro.experiments.ablation import ablation
from repro.experiments.figures import FIGURES
from repro.experiments.overhead import OVERHEADS
from repro.experiments.runner import (
    ENV_JOBS,
    POLICY_NAMES,
    clear_trace_cache,
    run_spec,
)
from repro.experiments.sensitivity import SENSITIVITIES
from repro.experiments.tables import TABLES
from repro import obs as obs_module
from repro.scenarios.spec import ScenarioSpec
from repro.sim import cache as sim_cache
from repro.workloads.suite import (
    APPLICATION_ORDER,
    all_applications,
    get_application,
)
from repro.workloads.trace_io import load_trace, save_trace


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7,
                        help="trace generation seed (default 7)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="footprint scale factor (default 1.0)")
    parser.add_argument("--apps", type=str, default=None,
                        help="comma-separated subset of applications")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for matrix runs, forked "
                             "once per process, not per matrix "
                             "(default: REPRO_JOBS or serial; "
                             "0 = all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache "
                             "for this invocation")
    parser.add_argument("--obs", action="store_true",
                        help="enable the observability layer (metrics "
                             "registry + interval time-series; same as "
                             "REPRO_OBS=1)")
    parser.add_argument("--sanitize", action="store_true",
                        help="validate simulator invariants while running "
                             "(same as REPRO_SANITIZE=1)")
    parser.add_argument("--chaos", type=str, default=None, metavar="SPEC",
                        help="deterministic fault injection, e.g. "
                             "'seed=42,crash=0.2,flaky=0.3,torn=0.5' "
                             "(same as REPRO_CHAOS)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock timeout for matrix "
                             "cells; 0 disables (same as "
                             "REPRO_WORKER_TIMEOUT)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="extra attempts per failed matrix job "
                             "(same as REPRO_RETRIES)")
    parser.add_argument("--fastpath", type=int, default=None,
                        choices=(0, 1, 2), metavar="LEVEL",
                        help="simulator inner-loop tier: 0=reference, "
                             "1=exact fast kernel; 2 is an alias of 1 "
                             "(same as REPRO_SIM_FASTPATH; default 1)")


def _apps_arg(value: Optional[str]) -> Optional[list[str]]:
    if value is None:
        return None
    return [item.strip().upper() for item in value.split(",") if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpe-repro",
        description="Reproduction harness for 'HPE: Hierarchical Page "
                    "Eviction Policy for Unified Memory in GPUs'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the evaluated applications")

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--app", required=True, help="application abbreviation")
    run_p.add_argument("--policy", default="hpe", choices=POLICY_NAMES)
    run_p.add_argument("--rate", type=float, default=0.75,
                       help="oversubscription rate (default 0.75)")
    _add_common(run_p)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("id", choices=sorted(FIGURES, key=int),
                       help="figure number")
    _add_common(fig_p)

    tab_p = sub.add_parser("table", help="regenerate a paper table")
    tab_p.add_argument("id", choices=sorted(TABLES))
    _add_common(tab_p)

    sens_p = sub.add_parser("sensitivity", help="run a sensitivity study")
    sens_p.add_argument("id", choices=sorted(SENSITIVITIES))
    _add_common(sens_p)

    ovh_p = sub.add_parser("overhead", help="run an overhead analysis")
    ovh_p.add_argument("id", choices=sorted(OVERHEADS))
    _add_common(ovh_p)

    abl_p = sub.add_parser("ablation", help="run the design-choice ablations")
    abl_p.add_argument("--rate", type=float, default=0.75)
    abl_p.add_argument("--variants", type=str, default=None,
                       help="comma-separated variant subset")
    _add_common(abl_p)

    trace_p = sub.add_parser(
        "trace",
        help="dump an application page trace (--app/--out) or record a "
             "JSONL event trace (trace APP [POLICY] [RATE])",
    )
    trace_p.add_argument("app_pos", nargs="?", metavar="APP", default=None,
                         help="application abbreviation (event-trace mode)")
    trace_p.add_argument("policy_pos", nargs="?", metavar="POLICY",
                         default="hpe",
                         help="policy for the event trace (default hpe)")
    trace_p.add_argument("rate_pos", nargs="?", metavar="RATE", type=float,
                         default=0.75,
                         help="oversubscription rate (default 0.75)")
    trace_p.add_argument("--app", default=None,
                         help="application for page-trace dump mode")
    trace_p.add_argument("--out", default=None,
                         help="output path (.gz ok for page traces; "
                              "default APP-POLICY-RATE.events.jsonl in "
                              "event-trace mode)")
    _add_common(trace_p)

    stats_p = sub.add_parser(
        "stats", help="dump the observability metrics registry"
    )
    stats_p.add_argument("app_pos", nargs="?", metavar="APP", default=None,
                         help="run this application observed, then dump")
    stats_p.add_argument("policy_pos", nargs="?", metavar="POLICY",
                         default="hpe",
                         help="policy (default hpe)")
    stats_p.add_argument("rate_pos", nargs="?", metavar="RATE", type=float,
                         default=0.75,
                         help="oversubscription rate (default 0.75)")
    _add_common(stats_p)

    ana_p = sub.add_parser("analyze", help="analyse a trace or application")
    group = ana_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--app", help="application abbreviation")
    group.add_argument("--file", help="trace file written by `trace`")
    ana_p.add_argument("--capacities", type=str, default=None,
                       help="comma-separated capacities for miss curves")
    _add_common(ana_p)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache"
    )
    cache_p.add_argument("action", choices=["info", "clear"],
                         help="info: show location and entry counts; "
                              "clear: delete every cached result")

    check_p = sub.add_parser(
        "check",
        help="run a correctness check (sanitized run or determinism diff)",
    )
    check_p.add_argument("mode", choices=["invariants", "determinism",
                                          "journal"],
                         help="invariants: one sanitized simulation; "
                              "determinism: run twice and diff digests; "
                              "journal: validate run-journal files")
    check_p.add_argument("app_pos", nargs="?", metavar="APP",
                         help="application abbreviation (or run id for "
                              "`check journal`; default: every journal)")
    check_p.add_argument("policy_pos", nargs="?", metavar="POLICY",
                         default="hpe", help="policy (default hpe)")
    check_p.add_argument("rate_pos", nargs="?", metavar="RATE", type=float,
                         default=0.75,
                         help="oversubscription rate (default 0.75)")
    check_p.add_argument("--fast", action="store_true",
                         help="smoke mode: sanitize only the first "
                              "2000 faults")
    _add_common(check_p)

    diff_p = sub.add_parser(
        "diff",
        help="differential check: replay synthetic traces through both "
             "simulator tiers and diff every observable",
    )
    diff_p.add_argument("--seeds", type=str, default="11,23,47",
                        metavar="S1,S2,...",
                        help="comma-separated trace seeds (default "
                             "11,23,47)")
    diff_p.add_argument("--length", type=int, default=2048,
                        help="episodes per synthetic trace (default 2048)")
    diff_p.add_argument("--policies", type=str, default=None,
                        help="comma-separated subset of policies "
                             "(default: all)")
    diff_p.add_argument("--generators", type=str, default=None,
                        help="comma-separated subset of trace generators "
                             "(default: all)")
    _add_common(diff_p)

    gold_p = sub.add_parser(
        "golden",
        help="check the golden key-metrics snapshots "
             "(--update regenerates them)",
    )
    gold_p.add_argument("--update", action="store_true",
                        help="rewrite the snapshots from the current "
                             "simulator instead of checking")
    gold_p.add_argument("--dir", type=str, default=None, metavar="DIR",
                        help="snapshot directory (default: "
                             "tests/diff/golden in the source checkout)")

    scen_p = sub.add_parser(
        "scenarios",
        help="named scenario registry: list, show NAME, run NAME, "
             "verify (spec hashes vs the committed manifest)",
    )
    scen_p.add_argument("action", choices=["list", "show", "run", "verify"],
                        help="list: every registered scenario; show: one "
                             "spec with its hashes; run: execute through "
                             "the matrix engine; verify: compare spec "
                             "hashes against the manifest")
    scen_p.add_argument("name", nargs="?", metavar="NAME", default=None,
                        help="scenario name (required for show/run)")
    _add_common(scen_p)

    lint_p = sub.add_parser(
        "lint", help="run the repo-specific AST lint pass (REP001-REP013)"
    )
    lint_p.add_argument("paths", nargs="*",
                        help="files/directories (default: the installed "
                             "repro package)")
    lint_p.add_argument("--statistics", action="store_true",
                        help="print per-rule finding and suppression "
                             "counts after the findings")

    flow_p = sub.add_parser(
        "flow",
        help="whole-program flow analyzer: fault-path closure "
             "fingerprints (REP009) and the pinned manifest",
    )
    flow_p.add_argument(
        "action", choices=["graph", "staleness", "pin"],
        help="graph: print the fault-path closure and call-graph "
             "stats; staleness: fail if the closure changed since the "
             "pinned manifest; pin: rewrite the manifest from the "
             "current tree",
    )

    sub.add_parser(
        "typecheck",
        help="strict typing gate (mypy if installed + AST annotation "
             "completeness)",
    )

    resume_p = sub.add_parser(
        "resume",
        help="resume an interrupted matrix run from its journal "
             "(no id: list the runs on disk)",
    )
    resume_p.add_argument("run_id", nargs="?", metavar="RUN_ID", default=None,
                          help="run id printed at interruption "
                               "(e.g. run-0123abcd4567)")
    _add_common(resume_p)

    serve_p = sub.add_parser(
        "serve",
        help="run the evaluation service: an asyncio HTTP/JSON server "
             "with admission control, request dedupe, deadlines, and "
             "graceful degradation",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8135,
                         help="bind port (default 8135; 0 = ephemeral)")
    serve_p.add_argument("--print-config", action="store_true",
                         help="dump every resolved REPRO_* resilience/"
                              "serving knob with its source, then exit")
    serve_p.add_argument("--chaos", type=str, default=None, metavar="SPEC",
                         help="inject worker faults into every served "
                              "evaluation (same grammar as --chaos "
                              "elsewhere; e.g. 'seed=7,crash=0.3')")
    serve_p.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="size of the worker pool all requests "
                              "share (same as REPRO_SERVE_JOBS; clamped "
                              "to >= 2)")
    serve_p.add_argument("--rate-limit", type=float, default=None,
                         metavar="RPS",
                         help="admission rate in requests/second "
                              "(same as REPRO_RATE_LIMIT; 0 disables)")
    serve_p.add_argument("--max-queue", type=int, default=None, metavar="N",
                         help="queued requests before 503 load shedding "
                              "(same as REPRO_MAX_QUEUE)")
    serve_p.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="default per-request deadline "
                              "(same as REPRO_DEADLINE; 0 disables)")
    serve_p.add_argument("--drain-grace", type=float, default=None,
                         metavar="SECONDS",
                         help="grace for in-flight requests on SIGTERM "
                              "(same as REPRO_DRAIN_GRACE)")

    submit_p = sub.add_parser(
        "submit",
        help="submit an evaluation to a running server "
             "(exit 0 ok, 2 degraded result, 1 rejected/error)",
    )
    submit_p.add_argument("scenario", nargs="?", metavar="SCENARIO",
                          default=None,
                          help="named scenario (see 'scenarios list')")
    submit_p.add_argument("--spec-json", default=None, metavar="JSON",
                          help="inline MatrixSpec JSON instead of a name")
    submit_p.add_argument("--host", default="127.0.0.1")
    submit_p.add_argument("--port", type=int, default=8135)
    submit_p.add_argument("--chaos", type=str, default=None, metavar="SPEC",
                          help="per-request worker fault injection")
    submit_p.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="request deadline (queue wait included)")
    submit_p.add_argument("--no-wait", action="store_true",
                          help="print the job id and return immediately "
                               "instead of watching to completion")

    watch_p = sub.add_parser(
        "watch", help="watch a submitted job until it reaches a "
                      "terminal state",
    )
    watch_p.add_argument("job_id", metavar="JOB_ID")
    watch_p.add_argument("--host", default="127.0.0.1")
    watch_p.add_argument("--port", type=int, default=8135)
    watch_p.add_argument("--timeout", type=float, default=600.0,
                         metavar="SECONDS",
                         help="give up waiting after this long "
                              "(default 600)")

    all_p = sub.add_parser("all", help="regenerate every table and figure")
    _add_common(all_p)

    return parser


def _apply_runtime_flags(args: argparse.Namespace) -> None:
    """Honour the global ``--jobs`` / ``--no-cache`` / ``--obs`` switches."""
    if args.command in ("serve", "submit", "watch"):
        # The service subcommands reuse flag names (--jobs, --chaos,
        # --timeout) with service-local semantics; they resolve their
        # own settings instead of mutating the process environment.
        return
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        os.environ[ENV_JOBS] = str(jobs)
    if getattr(args, "no_cache", False):
        sim_cache.configure(enabled=False)
    if getattr(args, "obs", False):
        obs_module.configure(enabled=True)
    if getattr(args, "sanitize", False):
        from repro import check as check_module

        check_module.configure(enabled=True)
        # A sanitized run must never be served from (or poison) the
        # result cache of unsanitized runs while being debugged.
        sim_cache.configure(enabled=False)
    if getattr(args, "chaos", None):
        from repro.resil import chaos as resil_chaos

        resil_chaos.ChaosSpec.parse(args.chaos)  # fail fast on bad specs
        os.environ[resil_chaos.ENV_CHAOS] = args.chaos
    from repro.resil.settings import KNOBS

    knob_env = {knob.name: knob.env for knob in KNOBS}
    for knob_name, value in (
        ("worker_timeout", getattr(args, "timeout", None)),
        ("retries", getattr(args, "retries", None)),
    ):
        if value is not None:
            os.environ[knob_env[knob_name]] = str(value)
    fastpath = getattr(args, "fastpath", None)
    if fastpath is not None:
        from repro.sim.config import FASTPATH_ENV

        os.environ[FASTPATH_ENV] = str(fastpath)


def _common_kwargs(args: argparse.Namespace) -> dict:
    kwargs: dict = {"seed": args.seed, "scale": args.scale}
    apps = _apps_arg(args.apps)
    if apps is not None:
        kwargs["apps"] = apps
    return kwargs


def _event_trace(args: argparse.Namespace) -> int:
    """``trace APP [POLICY] [RATE]``: one observed run, JSONL events out."""
    from repro.obs import (
        JSONLEventTrace,
        Observation,
        read_events,
        summarize_events,
        validate_file,
    )

    app = args.app_pos.upper()
    policy = args.policy_pos
    rate = args.rate_pos
    out = args.out or f"{app}-{policy}-{int(rate * 100)}.events.jsonl"
    sink = JSONLEventTrace(out, validate=True)
    with Observation(trace=sink) as observation:
        result = run_spec(
            ScenarioSpec(app, policy, rate, seed=args.seed, scale=args.scale),
            obs=observation,
        )
    count = validate_file(out)
    summary = summarize_events(read_events(out))
    print(f"wrote {count} schema-valid events to {out}")
    print(f"workload         : {result.workload_name}")
    print(f"policy           : {result.policy_name}")
    print(f"faults           : {result.faults}")
    print(f"evictions        : {result.evictions}")
    print("events by type   :")
    for event_type, event_count in sorted(summary["by_type"].items()):
        print(f"  {event_type:16s} {event_count}")
    if summary["strategy_switches"]:
        print("strategy switches:")
        for fault_number, from_strategy, to_strategy in \
                summary["strategy_switches"]:
            print(f"  fault {fault_number}: "
                  f"{from_strategy} -> {to_strategy}")
    return 0


def _dump_stats(args: argparse.Namespace) -> int:
    """``stats [APP [POLICY] [RATE]]``: dump a metrics registry."""
    from repro.obs import Observation

    if args.app_pos is None:
        print(f"observability    : "
              f"{'enabled' if obs_module.enabled() else 'disabled'} "
              f"(REPRO_OBS / --obs)")
        registry = obs_module.MetricsRegistry()
        sim_cache.result_cache().stats.observe_into(registry)
        for line in registry.lines():
            print(line)
        return 0
    with Observation() as observation:
        run_spec(
            ScenarioSpec(args.app_pos, args.policy_pos, args.rate_pos,
                         seed=args.seed, scale=args.scale),
            obs=observation,
        )
    for line in observation.registry.lines():
        print(line)
    return 0


def _check_journal(args: argparse.Namespace) -> int:
    """``check journal [RUN_ID]``: validate run-journal invariants."""
    from repro.resil import journal as resil_journal

    run_ids = [args.app_pos] if args.app_pos else resil_journal.list_runs()
    if not run_ids:
        print(f"no run journals under {resil_journal.journal_dir()}")
        return 0
    invalid = 0
    for run_id in run_ids:
        try:
            summary = resil_journal.load(run_id)
        except resil_journal.JournalError as error:
            print(f"{run_id}: INVALID — {error}")
            invalid += 1
            continue
        if summary is None:
            print(f"{run_id}: no journal on disk")
            invalid += 1
            continue
        state = ("ended" if summary.ended
                 else "interrupted" if summary.interrupted else "open")
        print(f"{run_id}: ok — {summary.done}/"
              f"{summary.total_jobs} completed, {len(summary.failed)} "
              f"failed, {summary.segments} segment(s), {state}")
    if invalid:
        print(f"{invalid} invalid journal(s)")
        return 1
    return 0


def _resume(args: argparse.Namespace) -> int:
    """``resume [RUN_ID]``: continue an interrupted matrix run.

    The journal's ``run_start`` record carries the matrix's full spec
    hash.  Resume rebuilds a :class:`~repro.scenarios.spec.MatrixSpec`
    from the recorded fields and *proves* it is the same experiment by
    recomputing the hash — a mismatch (custom GPU/HPE config the journal
    cannot carry, or a schema bump since the run) refuses instead of
    silently re-running something else.
    """
    from repro.experiments.runner import run_scenario
    from repro.resil import journal as resil_journal
    from repro.scenarios.spec import PAPER_FAMILY, MatrixSpec, ScenarioError

    if args.run_id is None:
        runs = resil_journal.list_runs()
        if not runs:
            print(f"no run journals under {resil_journal.journal_dir()}")
            return 0
        for run_id in runs:
            try:
                summary = resil_journal.load(run_id)
            except resil_journal.JournalError as error:
                print(f"{run_id}: invalid journal ({error})")
                continue
            assert summary is not None
            state = ("ended" if summary.ended
                     else "interrupted" if summary.interrupted else "open")
            print(f"{run_id}: {summary.done}/"
                  f"{summary.total_jobs} completed, {state}")
        return 0
    summary = resil_journal.load(args.run_id)
    if summary is None:
        print(f"no journal for {args.run_id!r} under "
              f"{resil_journal.journal_dir()}", file=sys.stderr)
        return 1
    spec = summary.spec
    recorded_hash = spec.get("spec_hash")
    if not recorded_hash:
        print("this journal predates spec-hash recording (schema v1) and "
              "its run id cannot be re-derived — re-run the original "
              "command; the result cache still serves its completed jobs",
              file=sys.stderr)
        return 1
    try:
        matrix_spec = MatrixSpec(
            policies=tuple(spec["policies"]),
            rates=tuple(spec["rates"]),
            apps=tuple(spec["apps"]),
            seed=spec["seed"],
            scale=spec["scale"],
            family=spec.get("family", PAPER_FAMILY),
            prefetch_degree=spec.get("prefetch", 0),
        )
    except (KeyError, ScenarioError) as error:
        print(f"journal spec cannot be reconstructed: {error!r}",
              file=sys.stderr)
        return 1
    if matrix_spec.spec_hash() != recorded_hash:
        print("recorded spec hash does not match the reconstructed matrix "
              "— the run used settings the journal cannot carry (custom "
              "GPU/HPE configuration) or predates a schema bump; re-run "
              "the original command; the result cache still serves its "
              "completed jobs", file=sys.stderr)
        return 1
    print(f"resuming {args.run_id}: {summary.done}/"
          f"{summary.total_jobs} job(s) already completed", file=sys.stderr)
    matrix = run_scenario(matrix_spec, progress=True)
    print(f"run {matrix.run_id}: {len(matrix.results)} cell(s) complete, "
          f"{len(matrix.failures)} failed")
    for line in matrix.failure_lines():
        print(f"  FAILED {line}")
    return 1 if matrix.degraded else 0


def _run_scenarios(args: argparse.Namespace) -> int:
    """``scenarios {list,show,run,verify} [NAME]``: the named registry."""
    from repro.experiments.runner import run_scenario
    from repro.scenarios import (
        ScenarioError,
        all_scenarios,
        get_scenario,
        verify_manifest,
    )

    if args.action == "list":
        entries = all_scenarios()
        width = max((len(entry.name) for entry in entries), default=4)
        for entry in entries:
            cells = len(entry.spec.cells())
            print(f"{entry.name:<{width}s}  {cells:>4d} cells  "
                  f"{entry.spec.run_id()}  {entry.description}")
        return 0

    if args.action == "verify":
        problems = verify_manifest()
        for problem in problems:
            print(f"  SCENARIO {problem}")
        if problems:
            print(f"scenarios: {len(problems)} manifest mismatch(es)")
            return 1
        print(f"scenarios: all {len(all_scenarios())} spec hashes match "
              "the manifest")
        return 0

    if args.name is None:
        print(f"scenarios {args.action}: NAME is required", file=sys.stderr)
        return 2
    try:
        entry = get_scenario(args.name)
    except ScenarioError as error:
        print(f"scenarios: {error}", file=sys.stderr)
        return 2

    if args.action == "show":
        print(f"name        : {entry.name}")
        print(f"description : {entry.description}")
        for field, value in entry.spec.describe().items():
            print(f"{field:12s}: {value}")
        return 0

    # run — the spec is the identity authority: the sweep flags that
    # would change it are rejected rather than silently ignored.
    overridden = [
        flag for flag, given in (
            ("--seed", args.seed != 7),
            ("--scale", not math.isclose(args.scale, 1.0)),
            ("--apps", args.apps is not None),
        ) if given
    ]
    if overridden:
        print(f"scenarios run: {', '.join(overridden)} would change the "
              "experiment identity; registered specs are immutable — "
              "use the matrix flags via figures/tables, or register a "
              "new scenario", file=sys.stderr)
        return 2
    start = time.time()
    matrix = run_scenario(entry.spec, progress=True)
    elapsed = time.time() - start
    print(f"run {matrix.run_id}: {len(matrix.results)} cell(s) complete, "
          f"{len(matrix.failures)} failed ({elapsed:.1f}s)")
    for line in matrix.failure_lines():
        print(f"  FAILED {line}")
    return 1 if matrix.degraded else 0


def _run_diff(args: argparse.Namespace) -> int:
    """``diff``: the differential matrix over both simulator tiers."""
    from repro.check.diffrun import compare_levels
    from repro.check.difftraces import GENERATORS, build
    from repro.experiments.runner import POLICY_NAMES

    seed_parts = [part.strip() for part in args.seeds.split(",")
                  if part.strip()]
    if not seed_parts:
        print("diff: --seeds is empty", file=sys.stderr)
        return 2
    try:
        seeds = [int(part) for part in seed_parts]
    except ValueError:
        print(f"diff: --seeds takes comma-separated integers, got "
              f"{args.seeds!r}", file=sys.stderr)
        return 2
    policies = (
        [part.strip().lower() for part in args.policies.split(",")
         if part.strip()]
        if args.policies else list(POLICY_NAMES)
    )
    for policy in policies:
        if policy not in POLICY_NAMES:
            print(f"diff: unknown policy {policy!r} "
                  f"(known: {', '.join(POLICY_NAMES)})", file=sys.stderr)
            return 2
    kinds = (
        [part.strip() for part in args.generators.split(",") if part.strip()]
        if args.generators else list(GENERATORS)
    )
    for kind in kinds:
        if kind not in GENERATORS:
            print(f"diff: unknown generator {kind!r} "
                  f"(known: {', '.join(GENERATORS)})", file=sys.stderr)
            return 2
    sanitize = bool(getattr(args, "sanitize", False))
    start = time.time()
    cells = 0
    failures: list[str] = []
    for seed in seeds:
        for kind in kinds:
            trace = build(kind, seed, args.length)
            bad = 0
            for policy in policies:
                for rate in (0.75, 0.5):
                    capacity = max(8, int(trace.footprint_pages * rate))
                    report = compare_levels(
                        trace.pages, policy, capacity,
                        sanitize=sanitize, workload_name=trace.name,
                    )
                    cells += 1
                    if not report.ok:
                        bad += 1
                        cell = f"seed {seed} {kind} {policy} @ {rate:.0%}"
                        failures.extend(
                            f"{cell}: {line}"
                            for line in report.mismatches
                        )
            status = "ok" if not bad else f"{bad} MISMATCHED cell(s)"
            print(f"seed {seed:>6d} {kind:<14s} "
                  f"{len(policies) * 2:>3d} cells: {status}")
    elapsed = time.time() - start
    for line in failures:
        print(f"  MISMATCH {line}")
    verdict = f"{len(failures)} mismatch(es)" if failures else \
        "bit-identical"
    print(f"diff: {cells} cells in {elapsed:.1f}s: {verdict}")
    return 1 if failures else 0


def _run_golden(args: argparse.Namespace) -> int:
    """``golden [--update]``: key-metrics snapshot check/regeneration."""
    from pathlib import Path

    from repro.check import golden

    directory = Path(args.dir) if args.dir else None
    if args.update:
        for path in golden.write_golden(directory):
            print(f"wrote {path}")
        return 0
    problems = golden.check_golden(directory)
    if problems:
        for problem in problems:
            print(f"  GOLDEN {problem}")
        print(f"golden: {len(problems)} mismatch(es) "
              "(intentional change? regenerate with: "
              "hpe-repro golden --update)")
        return 1
    print("golden: all snapshots match")
    return 0


def _run_flow(args: argparse.Namespace) -> int:
    """``flow {graph,staleness,pin}``: the REP009 closure gate."""
    from repro.check import flow

    analysis = flow.analyze()
    if args.action == "graph":
        by_module: dict[str, int] = {}
        for qualname in analysis.closure:
            module = analysis.program.functions[qualname].module
            by_module[module] = by_module.get(module, 0) + 1
        print(f"fault-path closure: {len(analysis.closure)} functions "
              f"in {len(by_module)} modules")
        for module in sorted(by_module):
            print(f"  {by_module[module]:4d}  {module}")
        unresolved = analysis.graph.unresolved.most_common(10)
        if unresolved:
            print("unresolved attribute calls (top 10):")
            for name, count in unresolved:
                print(f"  {count:4d}  .{name}()")
        return 0
    if args.action == "pin":
        manifest = flow.pin_manifest(analysis)
        print(f"pinned {len(manifest.functions)} fingerprints "
              f"(schema v{manifest.cache_schema_version}, digest "
              f"{manifest.closure_digest[:16]}…) to "
              f"{flow.default_manifest_path()}")
        return 0
    report = flow.check_staleness(analysis)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _run_check(args: argparse.Namespace) -> int:
    """``check {invariants,determinism,journal} APP [POLICY] [RATE]``."""
    from repro import check as check_module
    from repro.check import InvariantViolation

    if args.mode == "journal":
        return _check_journal(args)
    if args.app_pos is None:
        print("check: APP is required for invariants/determinism",
              file=sys.stderr)
        return 2
    app = args.app_pos.upper()
    policy = args.policy_pos
    rate = args.rate_pos
    if args.mode == "determinism":
        from repro.check.determinism import check_determinism

        report = check_determinism(
            app, policy, rate, seed=args.seed, scale=args.scale
        )
        print(report.render())
        return 0 if report.deterministic else 1

    check_module.configure(enabled=True, fast=args.fast)
    start = time.time()
    try:
        result = run_spec(
            ScenarioSpec(app, policy, rate, seed=args.seed, scale=args.scale),
            use_cache=False,
        )
    except InvariantViolation as violation:
        print(violation.render())
        print(f"{app} / {policy} @ {rate:.0%}: INVARIANT VIOLATION")
        return 1
    finally:
        check_module.configure(enabled=False, fast=False)
    elapsed = time.time() - start
    stats = result.extras.get("sanitizer")
    print(f"{app} / {policy} @ {rate:.0%}: all invariants hold "
          f"({elapsed:.2f}s)")
    if stats is not None:
        print(f"faults sanitized : {stats.faults_seen}"
              f"{' (fast mode cap hit)' if stats.capped else ''}")
        print(f"sweeps           : {stats.sweeps} "
              f"({stats.interval_sweeps} at interval boundaries)")
        print(f"invariant checks : {stats.invariants_checked}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.resil import EXIT_INTERRUPTED, ChaosSpecError, MatrixInterrupted

    try:
        _apply_runtime_flags(args)
    except ChaosSpecError as error:
        parser.error(str(error))
    try:
        return _dispatch(parser, args)
    except MatrixInterrupted as interrupted:
        # Clean shutdown already happened inside run_scenario (pool
        # terminated, journal flushed); tell the user how to pick up.
        print(f"\ninterrupted: {interrupted}", file=sys.stderr)
        print(f"resume with: hpe-repro resume {interrupted.run_id}",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _run_serve(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    from repro.resil import ChaosSpecError
    from repro.resil.settings import resolve as resolve_resil_settings

    settings = resolve_resil_settings(
        serve_jobs=args.jobs,
        rate_limit=args.rate_limit,
        max_queue=args.max_queue,
        request_deadline=args.deadline,
        drain_grace=args.drain_grace,
    )
    if args.print_config:
        for line in settings.lines():
            print(line)
        return 0
    from repro.serve import EvaluationService, serve_forever

    try:
        # Built before serve_forever starts the event loop: the service
        # forks its worker pool while this process has no other thread.
        service = EvaluationService(settings, chaos=args.chaos)
    except ChaosSpecError as error:
        parser.error(str(error))
    return serve_forever(service, host=args.host, port=args.port)


def _print_job_view(view: dict) -> int:
    """Render one job snapshot; the exit code mirrors its state."""
    status = view.get("status", "unknown")
    print(f"job     : {view.get('job_id')}")
    print(f"status  : {status}")
    print(f"run id  : {view.get('run_id')}")
    print(f"elapsed : {view.get('elapsed')}s")
    error = view.get("error")
    if error:
        print(f"error   : {error.get('error')}: {error.get('message')}")
        if error.get("resume"):
            print(f"resume  : {error['resume']}")
        return 1
    result = view.get("result")
    if result is not None:
        print(f"cells   : {result['cells_total']} "
              f"({result['cells_degraded']} degraded)")
        for cell in result["cells"]:
            label = f"{cell['app']}/{cell['policy']}@{cell['rate']}"
            if cell["status"] == "DEGRADED":
                failure = cell["failure"]
                print(f"  {label:24s} DEGRADED "
                      f"{failure['error_type']}: {failure['message']}")
            else:
                print(f"  {label:24s} ipc={cell['metrics']['ipc']:.4f} "
                      f"faults={cell['metrics']['faults']}")
        return 2 if result["degraded"] else 0
    return 0 if status in ("queued", "running", "done") else 1


def _run_submit(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServiceClient, ServiceUnreachable

    if bool(args.scenario) == bool(args.spec_json):
        parser.error("submit needs exactly one of SCENARIO or --spec-json")
    payload: dict = (
        {"scenario": args.scenario}
        if args.scenario
        else {"spec": json.loads(args.spec_json)}
    )
    if args.chaos:
        payload["chaos"] = args.chaos
    if args.deadline is not None:
        payload["deadline"] = args.deadline
    client = ServiceClient(args.host, args.port)
    try:
        response = client.submit(payload)
        if response.status != 202:
            print(f"rejected ({response.status}): "
                  f"{response.body.get('error')}: "
                  f"{response.body.get('message')}", file=sys.stderr)
            if response.retry_after is not None:
                print(f"retry after {response.retry_after:.0f}s",
                      file=sys.stderr)
            return 1
        job_id = response.body["job_id"]
        if response.body.get("deduped"):
            print(f"deduplicated onto in-flight job {job_id}")
        else:
            print(f"submitted as {job_id}")
        if args.no_wait:
            print(f"watch with: hpe-repro watch {job_id} "
                  f"--host {args.host} --port {args.port}")
            return 0
        final = client.watch(job_id)
        if not final.ok:
            print(f"lost the job ({final.status}): "
                  f"{final.body.get('message')}", file=sys.stderr)
            return 1
        return _print_job_view(final.body)
    except ServiceUnreachable as error:
        print(str(error), file=sys.stderr)
        print("is 'hpe-repro serve' running?", file=sys.stderr)
        return 1


def _run_watch(args: argparse.Namespace) -> int:
    from repro.serve import ServiceClient, ServiceUnreachable

    client = ServiceClient(args.host, args.port)
    try:
        final = client.watch(args.job_id, timeout=args.timeout)
    except ServiceUnreachable as error:
        print(str(error), file=sys.stderr)
        return 1
    if not final.ok:
        print(f"{final.status}: {final.body.get('message')}",
              file=sys.stderr)
        return 1
    return _print_job_view(final.body)


def _dispatch(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    # Refuse an unknown --apps name before any cell runs (a matrix would
    # retry the missing workload, then the renderer would fail on it).
    unknown = [app for app in _apps_arg(getattr(args, "apps", None)) or ()
               if app not in APPLICATION_ORDER]
    if unknown:
        print(f"{args.command}: unknown application(s) {', '.join(unknown)} "
              f"(known: {', '.join(APPLICATION_ORDER)})", file=sys.stderr)
        return 2

    if args.command == "serve":
        return _run_serve(parser, args)

    if args.command == "submit":
        return _run_submit(parser, args)

    if args.command == "watch":
        return _run_watch(args)

    if args.command == "resume":
        return _resume(args)

    if args.command == "scenarios":
        return _run_scenarios(args)

    if args.command == "cache":
        if args.action == "clear":
            info = sim_cache.describe()
            sim_cache.clear_all()
            clear_trace_cache()
            print(f"cleared {info['results']} cached results "
                  f"under {info['directory']}")
            return 0
        info = sim_cache.describe()
        print(f"directory     : {info['directory']}")
        print(f"enabled       : {info['enabled']}")
        print(f"schema        : v{info['schema_version']}")
        print(f"cached results: {info['results']} "
              f"({info['result_bytes'] / 1024:.1f} KiB)")
        return 0

    if args.command == "check":
        return _run_check(args)

    if args.command == "diff":
        return _run_diff(args)

    if args.command == "golden":
        return _run_golden(args)

    if args.command == "lint":
        from pathlib import Path

        from repro.check.lint import run_lint_report

        report = run_lint_report([Path(p) for p in args.paths] or None)
        for finding in report.findings:
            print(finding.render())
        if args.statistics:
            for line in report.render_statistics():
                print(line)
        if report.findings:
            print(f"{len(report.findings)} problem(s) found")
            return 1
        if not args.statistics:
            print("repro lint: clean")
        return 0

    if args.command == "flow":
        return _run_flow(args)

    if args.command == "typecheck":
        from repro.check.typegate import run_typegate

        return run_typegate()

    if args.command == "list":
        print(f"{'abbr':5s} {'type':4s} {'suite':10s} application")
        for spec in all_applications():
            print(f"{spec.abbr:5s} {spec.pattern_type.roman:4s} "
                  f"{spec.suite:10s} {spec.name}")
        return 0

    if args.command == "run":
        start = time.time()
        result = run_spec(ScenarioSpec(
            args.app, args.policy, args.rate, seed=args.seed, scale=args.scale,
        ))
        elapsed = time.time() - start
        print(f"workload         : {result.workload_name}")
        print(f"policy           : {result.policy_name}")
        print(f"oversubscription : {result.oversubscription_rate:.0%}")
        print(f"footprint        : {result.footprint_pages} pages")
        print(f"capacity         : {result.capacity_pages} pages")
        print(f"trace length     : {result.trace_length} episodes")
        print(f"faults           : {result.faults} "
              f"({result.driver.compulsory_faults} compulsory)")
        print(f"evictions        : {result.evictions}")
        print(f"cycles           : {result.cycles}")
        print(f"IPC              : {result.ipc:.4f}")
        timeseries = result.extras.get("timeseries")
        if timeseries is not None:
            print(f"intervals obs.   : {len(timeseries)} snapshots")
        print(f"(simulated in {elapsed:.2f}s)")
        return 0

    if args.command == "figure":
        print(FIGURES[args.id](**_common_kwargs(args)).render())
        return 0

    if args.command == "table":
        kwargs = _common_kwargs(args)
        if args.id == "1":
            kwargs = {}
        print(TABLES[args.id](**kwargs).render())
        return 0

    if args.command == "sensitivity":
        print(SENSITIVITIES[args.id](**_common_kwargs(args)).render())
        return 0

    if args.command == "overhead":
        kwargs = _common_kwargs(args)
        if args.id in ("classification", "search"):
            kwargs = {}
        print(OVERHEADS[args.id](**kwargs).render())
        return 0

    if args.command == "ablation":
        kwargs = _common_kwargs(args)
        kwargs["rate"] = args.rate
        if args.variants:
            kwargs["variants"] = [v.strip() for v in args.variants.split(",")]
        print(ablation(**kwargs).render())
        return 0

    if args.command == "trace":
        if args.app_pos is not None:
            return _event_trace(args)
        if not args.app or not args.out:
            parser.error(
                "trace needs either positional APP [POLICY] [RATE] "
                "(event-trace mode) or --app and --out (page-trace dump)"
            )
        trace = get_application(args.app).build(seed=args.seed,
                                                scale=args.scale)
        save_trace(trace, args.out)
        print(f"wrote {len(trace)} episodes ({trace.footprint_pages} pages) "
              f"to {args.out}")
        return 0

    if args.command == "stats":
        return _dump_stats(args)

    if args.command == "analyze":
        from repro.analysis import infer_pattern, lru_miss_curve, profile
        from repro.analysis.reuse import belady_miss_curve
        if args.app:
            trace = get_application(args.app).build(seed=args.seed,
                                                    scale=args.scale)
        else:
            trace = load_trace(args.file)
        reuse = profile(trace.pages)
        guessed = infer_pattern(trace.pages)
        print(f"trace            : {trace.name}")
        print(f"episodes         : {reuse.trace_length}")
        print(f"footprint        : {reuse.footprint} pages")
        print(f"reuse fraction   : {reuse.reuse_fraction:.1%}")
        print(f"mean reuse dist. : {reuse.mean_reuse_distance:.1f} pages")
        print(f"declared pattern : {trace.pattern_type.roman}")
        print(f"inferred pattern : {guessed.roman}")
        histogram = reuse.distance_histogram([64, 512, 2048])
        print("reuse-distance histogram (warm refs):")
        for bucket, count in histogram.items():
            print(f"  {bucket:>8s}: {count}")
        if args.capacities:
            capacities = [int(c) for c in args.capacities.split(",")]
            lru = lru_miss_curve(trace.pages, capacities)
            belady = belady_miss_curve(trace.pages, capacities)
            print("miss curves (capacity: LRU faults / MIN faults):")
            for capacity in capacities:
                print(f"  {capacity:>8d}: {lru[capacity]} / "
                      f"{belady[capacity]}")
        return 0

    if args.command == "all":
        kwargs = _common_kwargs(args)
        for table_id in sorted(TABLES):
            table_kwargs = {} if table_id == "1" else kwargs
            print(TABLES[table_id](**table_kwargs).render())
            print()
        for figure_id in sorted(FIGURES, key=int):
            print(FIGURES[figure_id](**kwargs).render())
            print()
        for sens_id in sorted(SENSITIVITIES):
            print(SENSITIVITIES[sens_id](**kwargs).render())
            print()
        for ovh_id in sorted(OVERHEADS):
            ovh_kwargs = {} if ovh_id in ("classification", "search") else kwargs
            print(OVERHEADS[ovh_id](**ovh_kwargs).render())
            print()
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
