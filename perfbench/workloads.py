"""The three benchmark workloads: set-up, one round of ops, output checks.

``grid-cells``
    One pass over the paper grid (six policies x 23 applications x both
    rates) through ``run_spec`` with the result cache off; traces are
    built during set-up.  Replay kernel, policies and ``repro.core`` do
    the work.
``seed-sweep``
    One-application ``MatrixSpec`` s through ``run_scenario(jobs=2)``
    with the result cache and journal on, in a fresh directory; a third
    repeat an earlier matrix.  Pool start-up, trace publication, IPC,
    journal fsync and cache I/O dominate.
``serve-mix``
    ``hpe-repro serve`` in its own process and two closed-loop clients,
    each waiting for its answer (long-poll) before the next request.

A *round* runs the workload's fixed window of ops once, from a cold
set-up (fresh cache directory, empty trace cache, fresh server).  Every
round of a seed does identical work, so counts and the key-metrics
digest repeat exactly, and a run can take each op's median round.

Every timing is also taken on the calibrated scale of
:mod:`perfbench.calibrate`: grid-cells and seed-sweep time the reference
kernel between consecutive ops; serve-mix, whose ops overlap, runs its
window in segments of :data:`perfbench.ops.SERVE_SEGMENT` ops and times
the kernel between them, once both clients have their answers.
grid-cells runs on one CPU, pinned, so its kernel samples time the CPU
its cells ran on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.experiments import runner
from repro.scenarios.spec import ScenarioSpec
from repro.serve.client import ServiceClient, ServiceUnreachable
from repro.sim import cache as sim_cache
from repro.sim.results import SimulationResult
from repro.workloads.suite import APPLICATION_ORDER

from perfbench import calibrate
from perfbench import ops as op_lists
from perfbench.tracer import Tracer

#: serve-mix segments on each side of a segment whose kernel samples
#: set its reference (about a second).
SEGMENT_WINDOW = 2

#: Cells per run replayed again on the tier-0 reference loop.
GATE_SAMPLE = 8

#: Client-side deadline of one service request.
REQUEST_DEADLINE_S = 30.0

#: Knobs pinned for the server only.  With shared-memory traces on, a
#: worker forked by one request thread while another thread holds
#: multiprocessing's resource-tracker lock (publishing its traces)
#: deadlocks when it attaches the segment, and the request waits out
#: the 600 s worker timeout.  A single-cell request gains nothing from
#: publication, so the server runs with it off.
SERVER_ENV = {"REPRO_SHARED_TRACES": "0"}

#: Fields of a service answer compared against ``run_spec``.
ANSWER_FIELDS = (
    "ipc", "cycles", "instructions", "faults", "evictions",
    "capacity_pages", "footprint_pages",
)

clock = time.perf_counter


@dataclass
class CellRecord:
    """One cell an op actually simulated."""

    spec: ScenarioSpec
    metrics: dict
    tier: int
    elapsed_s: float
    events: int
    hpe: Optional[dict] = None


@dataclass
class OpRecord:
    """The outcome of one timed op."""

    index: int
    latency_s: float
    ok: bool
    error: str = ""
    spec: Any = None
    #: Cells this op simulated (grid-cells, seed-sweep).
    cells: list[CellRecord] = field(default_factory=list)
    #: serve-mix: the job's server-side ``elapsed`` and answer metrics.
    server_s: Optional[float] = None
    answer: Optional[dict] = None
    facts: dict = field(default_factory=dict)
    #: Reference-kernel seconds around the op (:mod:`perfbench.calibrate`).
    reference_s: float = calibrate.NOMINAL_S
    #: Share of the op's time spent on a CPU rather than waiting.
    cpu_share: float = 1.0

    @property
    def calibrated_s(self) -> float:
        return calibrate.scale(self.latency_s, self.reference_s,
                               self.cpu_share)


@dataclass
class Round:
    """Every op of one round, in op order."""

    records: list[OpRecord]
    wall_s: float
    #: ``wall_s`` on the calibrated scale, without the kernel's own time.
    calibrated_s: float
    setup_s: float = 0.0
    #: Per-round facts (cache stats and directory, server counters,
    #: leaked workers, events of the cells the server simulated).
    facts: dict = field(default_factory=dict)

    def tier_map(self) -> dict[str, int]:
        """Executed tier per (op, cell)."""
        return {
            f"{record.index}|{cell.spec.canonical()}": cell.tier
            for record in self.records
            for cell in record.cells
        }


def cell_record(spec: ScenarioSpec, result: SimulationResult) -> CellRecord:
    stats = result.extras.get("policy_stats")
    hpe = None
    if spec.policy == "hpe" and stats is not None:
        hpe = dataclasses.asdict(stats)
    return CellRecord(
        spec=spec,
        metrics=result.key_metrics(),
        tier=int(result.extras["fastpath"]["executed"]),
        elapsed_s=float(result.extras["elapsed_s"]),
        events=result.trace_length,
        hpe=hpe,
    )


def metrics_digest(items: list[tuple[str, object]]) -> str:
    """SHA-256 over sorted ``(identity, metrics)`` pairs."""
    canonical = json.dumps(sorted(items, key=lambda item: item[0]),
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def tier0_mismatches(cells: list[CellRecord], seed: int, label: str,
                     ) -> list[str]:
    """Replay a seeded sample of ``cells`` on the tier-0 reference loop
    and name every cell whose ``key_metrics()`` differ."""
    rng = random.Random(op_lists.derive(seed, label, "gate"))
    distinct = {cell.spec.canonical(): cell for cell in cells}
    sample = rng.sample(sorted(distinct), min(GATE_SAMPLE, len(distinct)))
    problems = []
    for canonical in sample:
        cell = distinct[canonical]
        reference = runner.run_spec(
            dataclasses.replace(cell.spec, fastpath=0), use_cache=False
        )
        executed = reference.extras["fastpath"]["executed"]
        if executed != 0:
            problems.append(f"{canonical}: reference replay ran tier "
                            f"{executed}, not 0")
        elif reference.key_metrics() != cell.metrics:
            problems.append(f"{canonical}: key_metrics differ from tier 0")
    return problems


def timed(tracer: Optional[Tracer], index: int,
          fn: Callable[[], Any]) -> tuple[float, Any, str]:
    """Run ``fn()`` as op ``index``; return (latency, value, error)."""
    started = clock()
    try:
        if tracer is None:
            value = fn()
        else:
            with tracer.span("op", op=index):
                value = fn()
    except Exception as exc:  # noqa: BLE001 - a failed op, recorded
        return clock() - started, None, f"{type(exc).__name__}: {exc}"
    return clock() - started, value, ""


def process_cpu_s() -> float:
    """CPU seconds of this process and of its children reaped so far."""
    children = os.times()
    return (time.process_time() + children.children_user
            + children.children_system)


def cpu_share(cpu_s: float, busy_s: float, parallel: int) -> float:
    """Share of ``busy_s`` seconds of ``parallel`` ops at once spent on a
    CPU, given the CPU seconds they used: the part of their time that
    host speed scales.  The rest waited, on fsync'd journal and cache
    writes for instance."""
    return min(1.0, cpu_s / (busy_s * parallel))


def sequential_round(records: list[OpRecord], samples: list[float],
                     wall_s: float, share: float) -> Round:
    """A round of ops run one after another, with a kernel sample before
    the first op and one after each: on the calibrated scale it lasts as
    long as its ops together."""
    for record, reference_s in zip(records, calibrate.references(samples)):
        record.reference_s = reference_s
        record.cpu_share = share
    round_ = Round(records, wall_s,
                   sum(record.calibrated_s for record in records))
    round_.facts["cpu_share"] = share
    return round_


class Workload:
    """Shared base of the workloads; subclasses supply the ops."""

    name = ""
    #: Result cache on (seed-sweep, serve-mix) or off (grid-cells).
    cache = True
    #: Ops per round.
    window = 0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self._dirs = itertools.count(1)

    def fresh_dir(self, label: str) -> Path:
        path = self.work / f"{self.name}-{label}-{next(self._dirs)}"
        path.mkdir(parents=True, exist_ok=False)
        return path

    def setup(self) -> float:
        """Cold in-process set-up of one round; returns its seconds."""
        started = clock()
        runner.clear_trace_cache()
        sim_cache.configure(enabled=self.cache,
                            directory=self.fresh_dir("cache"))
        self._setup()
        return clock() - started

    def _setup(self) -> None:
        pass

    def teardown(self) -> dict:
        """Stop what :meth:`setup` started; return facts for the round."""
        return {}

    def run(self, tracer: Optional[Tracer] = None) -> Round:
        """One round: the window of ops, timed one by one."""
        raise NotImplementedError

    def check(self, first: Round) -> list[str]:
        """Output mismatches of the first round (the correctness gate)."""
        raise NotImplementedError

    def digest(self, round_: Round) -> str:
        return metrics_digest([
            (f"{record.index}|{cell.spec.canonical()}", cell.metrics)
            for record in round_.records
            for cell in record.cells
        ])

    def probe_setup(self) -> float:
        """Calibrated seconds one cold set-up takes in a fresh process."""
        before = calibrate.sample()
        elapsed = self._probe_setup()
        return calibrate.scale(elapsed, (before + calibrate.sample()) / 2)

    def _probe_setup(self) -> float:
        started = clock()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--setup-probe", self.name, "--seed", str(self.seed)],
            stdout=subprocess.DEVNULL,
        )
        # A blocking wait: ``wait(timeout=...)`` polls in steps of up to
        # 50 ms, which would quantise the measurement.
        watchdog = threading.Timer(120.0, probe.kill)
        watchdog.start()
        try:
            status = probe.wait()
        finally:
            watchdog.cancel()
        elapsed = clock() - started
        if status != 0:
            raise RuntimeError(f"set-up probe exited with status {status}")
        return elapsed


class GridCells(Workload):
    name = "grid-cells"
    cache = False

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.cells = op_lists.grid_pass(seed)
        self.window = len(self.cells)
        # One process, one thread: pinned, the kernel samples time the
        # very CPU the cells run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def _setup(self) -> None:
        trace_seed = self.cells[0].seed
        for app in APPLICATION_ORDER:
            runner._TRACES.get(app, trace_seed, op_lists.SCALE)

    def run(self, tracer: Optional[Tracer] = None) -> Round:
        records: list[OpRecord] = []
        started = clock()
        samples = [calibrate.sample()]
        cpu_s = 0.0
        for index, spec in enumerate(self.cells):
            cpu_before = process_cpu_s()
            latency, result, error = timed(
                tracer, index,
                lambda spec=spec: runner.run_spec(spec, use_cache=False),
            )
            cpu_s += process_cpu_s() - cpu_before
            samples.append(calibrate.sample())
            record = OpRecord(index, latency, not error, error, spec=spec)
            if result is not None:
                record.cells.append(cell_record(spec, result))
            records.append(record)
        share = cpu_share(cpu_s, sum(r.latency_s for r in records), 1)
        return sequential_round(records, samples, clock() - started, share)

    def check(self, first: Round) -> list[str]:
        cells = [cell for record in first.records for cell in record.cells]
        return tier0_mismatches(cells, self.seed, self.name)


class SeedSweep(Workload):
    name = "seed-sweep"
    jobs = 2
    window = op_lists.SWEEP_WINDOW

    def run(self, tracer: Optional[Tracer] = None) -> Round:
        records: list[OpRecord] = []
        started = clock()
        samples = [calibrate.sample()]
        cpu_s = 0.0
        for op in itertools.islice(op_lists.sweep_ops(self.seed),
                                   self.window):
            cpu_before = process_cpu_s()
            latency, matrix, error = timed(
                tracer, op.index,
                lambda op=op: runner.run_scenario(
                    op.spec, jobs=self.jobs, journal=True),
            )
            cpu_s += process_cpu_s() - cpu_before
            samples.append(calibrate.sample())
            record = OpRecord(op.index, latency, not error, error, spec=op.spec)
            if matrix is not None:
                if matrix.degraded:
                    record.ok = False
                    record.error = "; ".join(matrix.failure_lines())
                record.facts["retries"] = matrix.metrics.gauge(
                    "resil.retries") or 0
                cells = [
                    cell_record(op.spec.cell(key.app, key.policy, key.rate),
                                result)
                    for key, result in matrix.results.items()
                ]
                if op.repeat_of is None:
                    record.cells = cells
                else:  # served from the result cache, not simulated
                    record.facts["cached"] = cells
            records.append(record)
        share = cpu_share(cpu_s, sum(r.latency_s for r in records),
                          self.jobs)
        round_ = sequential_round(records, samples, clock() - started, share)
        stats = sim_cache.result_cache().stats
        round_.facts.update(cache_dir=sim_cache.cache_dir(),
                            cache_hits=stats.result_hits,
                            cache_misses=stats.result_misses)
        return round_

    def check(self, first: Round) -> list[str]:
        """Cached repeats against the matrix they repeat, then a tier-0
        sample of the simulated cells."""
        simulated = {
            cell.spec.canonical(): cell.metrics
            for record in first.records for cell in record.cells
        }
        problems = [
            f"op {record.index} ({cell.spec.canonical()}): cached result "
            "differs from the simulated one"
            for record in first.records
            for cell in record.facts.get("cached", [])
            if simulated.get(cell.spec.canonical()) != cell.metrics
        ]
        cells = [cell for record in first.records for cell in record.cells]
        return problems + tier0_mismatches(cells, self.seed, self.name)


def _cell_payload(spec: ScenarioSpec) -> dict:
    return {"workload": spec.workload, "policy": spec.policy,
            "rate": spec.rate, "seed": spec.seed, "scale": spec.scale}


def _process_group(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


class ServerProcess:
    """``hpe-repro serve`` in its own process group, on a free port."""

    def __init__(self, root: Path, cache_dir: Path, log: Path) -> None:
        env = dict(os.environ)
        env.update(SERVER_ENV, REPRO_CACHE_DIR=str(cache_dir),
                   PYTHONUNBUFFERED="1")
        self.cache_dir = cache_dir
        self.log = log.open("wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            start_new_session=True,
        )

    def cpu_s(self) -> float:
        """CPU seconds of the server and of its workers reaped so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        ticks = stat[stat.rindex(")") + 2:].split()[11:15]
        return sum(map(int, ticks)) / os.sysconf("SC_CLK_TCK")

    def wait_ready(self, timeout: float = 60.0) -> ServiceClient:
        """Read the bound port from the banner, then poll ``/readyz``."""
        assert self.process.stdout is not None
        banner = self.process.stdout.readline().decode("utf-8", "replace")
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        client = ServiceClient("127.0.0.1", port, timeout=70.0)
        deadline = clock() + timeout
        while clock() < deadline:
            try:
                if client.ready().ok:
                    return client
            except ServiceUnreachable:
                pass
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("server never became ready")

    def stop(self) -> list[int]:
        """SIGTERM, wait, and return pids that outlived the server.

        Any such worker is killed, so no process of the run survives it.
        """
        pgid = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self.log.close()
        leaked = []
        for _ in range(50):  # workers get a moment to notice the exit
            leaked = _process_group(pgid)
            if not leaked:
                break
            time.sleep(0.02)
        if leaked:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except OSError:
                pass
            for _ in range(100):
                if not _process_group(pgid):
                    break
                time.sleep(0.02)
        return leaked


class ServeMix(Workload):
    name = "serve-mix"
    clients = 2
    window = op_lists.SERVE_WINDOW

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.root = Path(__file__).resolve().parent.parent
        self.server: Optional[ServerProcess] = None
        self.client: Optional[ServiceClient] = None

    def _start_server(self) -> ServerProcess:
        server = ServerProcess(self.root, self.fresh_dir("cache"),
                               self.work / f"server-{next(self._dirs)}.log")
        self.client = server.wait_ready()
        return server

    def setup(self) -> float:
        started = clock()
        self.server = self._start_server()
        return clock() - started

    def teardown(self) -> dict:
        assert self.server is not None
        server, self.server = self.server, None
        return {"leaked": server.stop(), "cache_dir": server.cache_dir}

    def _probe_setup(self) -> float:
        started = clock()
        server = self._start_server()
        elapsed = clock() - started
        server.stop()
        return elapsed

    def _request(self, client: ServiceClient, op: op_lists.Op) -> OpRecord:
        started = clock()
        deadline = started + REQUEST_DEADLINE_S
        record = OpRecord(op.index, 0.0, False, spec=op.spec)
        try:
            response = client.submit({"cell": _cell_payload(op.spec)})
            while response.ok and response.body.get("status") in (
                    "queued", "running"):
                remaining = deadline - clock()
                if remaining <= 0:
                    break
                response = client.job(str(response.body["job_id"]),
                                      wait=min(remaining, 30.0))
        except ServiceUnreachable as exc:
            record.error = str(exc)
            record.latency_s = clock() - started
            return record
        record.latency_s = clock() - started
        body = response.body
        if not response.ok:
            record.error = f"HTTP {response.status}: {body.get('error')}"
        elif record.latency_s > REQUEST_DEADLINE_S:
            record.error = "client deadline exceeded"
        elif body.get("status") != "done":
            record.error = f"job {body.get('status')}"
        else:
            cells = body["result"]["cells"]
            if cells[0]["status"] != "ok":
                record.error = "DEGRADED cell"
            else:
                record.ok = True
                record.answer = cells[0]["metrics"]
                record.server_s = float(body["elapsed"])
        return record

    def _closed_loop(self, client: ServiceClient, ops: list[op_lists.Op],
                     tracer: Optional[Tracer]) -> list[OpRecord]:
        """``ops`` through :attr:`clients` closed-loop client threads."""
        stream = iter(ops)
        lock = threading.Lock()
        records: list[OpRecord] = []

        def loop() -> None:
            while True:
                with lock:
                    op = next(stream, None)
                if op is None:
                    return
                if tracer is None:
                    record = self._request(client, op)
                else:
                    with tracer.span("op", op=op.index):
                        record = self._request(client, op)
                with lock:
                    records.append(record)

        threads = [threading.Thread(target=loop, daemon=True)
                   for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records

    def _cpu_s(self) -> float:
        """CPU seconds of this process (the clients) and the server."""
        assert self.server is not None
        return process_cpu_s() + self.server.cpu_s()

    def run(self, tracer: Optional[Tracer] = None) -> Round:
        """The window in segments of ops; between segments both clients
        wait while the reference kernel is timed on an idle host."""
        assert self.client is not None
        client = self.client
        ops = list(itertools.islice(op_lists.serve_ops(self.seed),
                                    self.window))
        segments: list[tuple[float, list[OpRecord]]] = []
        samples = [calibrate.sample()]
        cpu_s = 0.0
        for start in range(0, len(ops), op_lists.SERVE_SEGMENT):
            cpu_before = self._cpu_s()
            started = clock()
            records = self._closed_loop(
                client, ops[start:start + op_lists.SERVE_SEGMENT], tracer)
            segments.append((clock() - started, records))
            cpu_s += self._cpu_s() - cpu_before
            samples.append(calibrate.sample())
        wall_s = sum(seconds for seconds, _ in segments)
        share = cpu_share(cpu_s, wall_s, self.clients)
        calibrated_s = 0.0
        for (seconds, records), reference_s in zip(
                segments, calibrate.references(samples, SEGMENT_WINDOW)):
            for record in records:
                record.reference_s = reference_s
                record.cpu_share = share
            calibrated_s += calibrate.scale(seconds, reference_s, share)
        round_ = Round(
            sorted((record for _, records in segments for record in records),
                   key=lambda record: record.index),
            wall_s, calibrated_s)
        round_.facts["server_counters"] = client.stats().body.get(
            "counters", {})
        round_.facts["cpu_share"] = share
        return round_

    def check(self, first: Round) -> list[str]:
        """Every answer against ``run_spec`` of the same cell, in-process.

        Also records the trace events of each distinct cell, which the
        server simulated once (repeats are deduped or cached).
        """
        sim_cache.configure(enabled=False)
        expected: dict[str, dict] = {}
        events: dict[str, int] = {}
        problems = []
        for record in first.records:
            if record.answer is None:
                continue
            canonical = record.spec.canonical()
            if canonical not in expected:
                result = runner.run_spec(record.spec, use_cache=False)
                expected[canonical] = {
                    name: getattr(result, name) for name in ANSWER_FIELDS
                }
                events[canonical] = result.trace_length
            answer = {name: record.answer.get(name) for name in ANSWER_FIELDS}
            if answer != expected[canonical]:
                problems.append(f"op {record.index} ({canonical}): answer "
                                "differs from run_spec")
        first.facts["events"] = events
        return problems

    def digest(self, round_: Round) -> str:
        return metrics_digest([
            (f"{record.index}|{record.spec.canonical()}", record.answer)
            for record in round_.records
        ])


WORKLOADS = {cls.name: cls for cls in (GridCells, SeedSweep, ServeMix)}
