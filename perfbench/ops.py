"""Seeded op lists for the three workloads.

Every input the benchmark feeds the program derives from the workload
seed through :func:`derive`, so the same seed gives the same op list on
any machine.  An *op* is one grid cell (``grid-cells``), one matrix
(``seed-sweep``) or one service request (``serve-mix``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.experiments.runner import PAPER_RATES
from repro.scenarios.spec import MatrixSpec, ScenarioSpec
from repro.workloads.suite import APPLICATION_ORDER

#: The paper's six policies (Figs. 10-12), in report order.
PAPER_POLICIES = ("ideal", "lru", "random", "rrip", "clock-pro", "hpe")

#: Trace scale of every workload (1.0 is the paper's full size).
SCALE = 0.25

#: Policies of one seed-sweep matrix.
SWEEP_POLICIES = ("lru", "hpe", "rrip")

#: Every ``REPEAT_EVERY``-th op repeats an earlier one: a fixed third,
#: away from one half, so the median stays in the miss mode.
REPEAT_EVERY = 3

#: Ops per seed-sweep round: three passes over the applications, and
#: the repeats among them.
SWEEP_WINDOW = 3 * len(APPLICATION_ORDER) * REPEAT_EVERY // (REPEAT_EVERY - 1)

#: Ops per serve-mix round: one pass over the application x policy
#: pairs (see :func:`serve_ops`), and the repeats among them.
SERVE_WINDOW = (len(APPLICATION_ORDER) * len(PAPER_POLICIES) * REPEAT_EVERY
                // (REPEAT_EVERY - 1))

#: Ops of serve-mix between two quiet points (a ninth of the window,
#: about half a second), where host speed is sampled.
SERVE_SEGMENT = SERVE_WINDOW // 9

#: Trace seeds per application in the serve-mix cell pool.
SERVE_TRACE_SEEDS = 4


def derive(seed: int, *labels: object) -> int:
    """A 31-bit seed derived from the workload seed and ``labels``."""
    text = "|".join([str(seed), *(str(label) for label in labels)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def grid_pass(seed: int) -> list[ScenarioSpec]:
    """One pass over policies x applications x rates, in seeded order."""
    trace_seed = derive(seed, "grid-cells", "trace")
    cells = [
        ScenarioSpec(workload=app, policy=policy, rate=rate,
                     seed=trace_seed, scale=SCALE)
        for app in APPLICATION_ORDER
        for policy in PAPER_POLICIES
        for rate in PAPER_RATES
    ]
    random.Random(derive(seed, "grid-cells", "order")).shuffle(cells)
    return cells


@dataclass(frozen=True)
class Op:
    """One op of a sweep or service workload."""

    index: int
    spec: object  # MatrixSpec (seed-sweep) or ScenarioSpec (serve-mix)
    #: Index of the earlier op this one repeats, or ``None`` when fresh.
    repeat_of: Optional[int] = None


def _apps_round_robin(rng: random.Random) -> Iterator[str]:
    """Applications in reshuffled rounds, so each appears equally often."""
    while True:
        order = list(APPLICATION_ORDER)
        rng.shuffle(order)
        yield from order


def sweep_ops(seed: int) -> Iterator[Op]:
    """Small one-application matrices over fresh trace seeds; a third
    of them repeat an earlier matrix, so cache reads sit beside writes."""
    rng = random.Random(derive(seed, "seed-sweep"))
    apps = _apps_round_robin(rng)
    fresh: list[int] = []
    ops: list[Op] = []
    index = 0
    while True:
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            target = ops[rng.choice(fresh)]
            op = Op(index, target.spec, repeat_of=target.index)
        else:
            spec = MatrixSpec(
                policies=SWEEP_POLICIES, rates=PAPER_RATES,
                apps=(next(apps),),
                seed=derive(seed, "seed-sweep", "trace", len(fresh)),
                scale=SCALE,
            )
            op = Op(index, spec)
            fresh.append(index)
        ops.append(op)
        yield op
        index += 1


def serve_pool(seed: int) -> list[ScenarioSpec]:
    """The fixed pool of single cells service requests draw from."""
    return [
        ScenarioSpec(workload=app, policy=policy, rate=rate,
                     seed=derive(seed, "serve-mix", "trace", app, k),
                     scale=SCALE)
        for app in APPLICATION_ORDER
        for k in range(SERVE_TRACE_SEEDS)
        for policy in PAPER_POLICIES
        for rate in PAPER_RATES
    ]


def _serve_strata(seed: int, rng: random.Random) -> Iterator[ScenarioSpec]:
    """Cells of :func:`serve_pool` in passes that hold each (application,
    policy) pair once, with a drawn trace seed and rate, in drawn order.

    Cell cost depends mostly on the pair, so every pass costs about the
    same whatever the seed; an unstratified draw of the same length
    varies by a third from seed to seed.
    """
    pool: dict[tuple[str, str], list[ScenarioSpec]] = {}
    for spec in serve_pool(seed):
        pool.setdefault((spec.workload, spec.policy), []).append(spec)
    pairs = list(pool)
    while True:
        rng.shuffle(pairs)
        for pair in pairs:
            yield rng.choice(pool[pair])


def serve_ops(seed: int) -> Iterator[Op]:
    """Single-cell requests: fresh cells in stratified passes over the
    application x policy pairs of :func:`serve_pool`; a third repeat an
    earlier request — half of those the request just before, which is
    often still in flight."""
    rng = random.Random(derive(seed, "serve-mix"))
    draw = _serve_strata(seed, rng)
    fresh: list[int] = []
    ops: list[Op] = []
    index = 0
    while True:
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            if rng.random() < 0.5:
                target = ops[index - 1]
            else:
                target = ops[rng.choice(fresh)]
            op = Op(index, target.spec, repeat_of=target.index)
        else:
            op = Op(index, next(draw))
            fresh.append(index)
        ops.append(op)
        yield op
        index += 1
