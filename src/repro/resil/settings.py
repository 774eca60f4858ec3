"""One typed resolver for every ``REPRO_*`` resilience/serving knob.

Before this module existed the resilience knobs were scattered:
``repro.resil.supervisor`` parsed ``REPRO_TIMEOUT`` / ``REPRO_RETRIES``
/ ``REPRO_BACKOFF`` with three ad-hoc helpers, and the serving layer
would have grown its own parsing for rate limits and deadlines.  Every
knob now lives in one table (:data:`KNOBS`) with its type, default,
validation rule, and documentation, and resolves through
:func:`resolve` into a frozen :class:`ResilSettings`.  ``hpe-repro
serve --print-config`` dumps the resolved values with their sources so
an operator can see exactly what a running service will do.

Knob semantics
--------------
``worker_timeout``
    Per-job wall-clock budget in seconds.  ``REPRO_WORKER_TIMEOUT``
    (preferred; ``--timeout`` writes it) or the legacy
    ``REPRO_TIMEOUT``.  **``0`` disables enforcement** — the documented
    escape hatch for debugging a genuinely slow cell — for worker
    processes and the in-process (``jobs=1``) executor alike.
    (The legacy variable keeps its historical "non-positive means
    default" reading; only ``REPRO_WORKER_TIMEOUT`` can express 0.)
``retries`` / ``backoff``
    Extra attempts per failed job and the base of the exponential
    backoff between them (deterministically jittered; see
    :func:`repro.resil.supervisor.backoff_delay`).
``rate_limit`` / ``rate_burst``
    Token-bucket admission for the evaluation service: sustained
    requests/second and the burst capacity.  ``rate_limit=0`` disables
    rate limiting.
``max_queue`` / ``max_concurrent``
    Queue-depth admission control: at most ``max_concurrent`` requests
    evaluate at once and at most ``max_queue`` requests may be queued
    or running before new submissions are shed with 503.
``request_deadline``
    Default per-request deadline in seconds (a request may ask for a
    shorter one).  ``0`` disables deadlines.
``breaker_threshold`` / ``breaker_cooldown``
    Circuit breaker: after ``breaker_threshold`` consecutive
    crash/timeout-degraded evaluations of the *same* spec, further
    submissions of that spec are quarantined for ``breaker_cooldown``
    seconds (poison-request protection).  ``threshold=0`` disables.
``drain_grace``
    Seconds a draining server waits for in-flight requests after
    SIGTERM/SIGINT.  Work still running then is interrupted (its
    journal ends ``run_interrupted``) and the server exits with status
    75 (``EX_TEMPFAIL``).
``serve_jobs``
    Size of the one worker pool that every request of the evaluation
    service shares, forked when the service starts.  Clamped to >= 2 so
    every evaluation runs in worker processes: a crash stays in the
    worker, and the service evaluates on executor threads, where the
    SIGALRM deadline of the in-process (``jobs=1``) executor cannot
    fire.
``read_timeout``
    Seconds the HTTP layer waits for a slow client's request before
    answering 408 and closing (abandoned-connection protection).
``stderr_tail_bytes``
    Bound on the worker-stderr tail attached to a
    :class:`~repro.resil.supervisor.JobFailure` (after consecutive
    duplicate lines are collapsed).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable, Optional, Union

Number = Union[int, float]

#: Legacy alias for ``worker_timeout`` (kept working forever).
ENV_LEGACY_TIMEOUT = "REPRO_TIMEOUT"


@dataclass(frozen=True)
class Knob:
    """One configuration knob: identity, parsing, and documentation."""

    name: str
    env: str
    default: Number
    kind: str  # "float" or "int"
    #: Is an explicit 0 meaningful (disables the feature) or invalid?
    zero_ok: bool
    description: str

    def parse(self, raw: str) -> Optional[Number]:
        """Parse an environment string; ``None`` when invalid."""
        try:
            value: Number = (
                int(raw) if self.kind == "int" else float(raw)
            )
        except ValueError:
            return None
        if value < 0 or (value == 0 and not self.zero_ok):
            return None
        return value


#: Every knob, in ``--print-config`` display order.
KNOBS: tuple[Knob, ...] = (
    Knob("worker_timeout", "REPRO_WORKER_TIMEOUT", 600.0, "float", True,
         "per-job wall-clock timeout in seconds (0 disables; legacy "
         "alias REPRO_TIMEOUT, which cannot express 0)"),
    Knob("retries", "REPRO_RETRIES", 2, "int", True,
         "extra attempts after a job's first failure"),
    Knob("backoff", "REPRO_BACKOFF", 0.25, "float", True,
         "base retry backoff in seconds, doubled per attempt with "
         "deterministic jitter"),
    Knob("rate_limit", "REPRO_RATE_LIMIT", 50.0, "float", True,
         "sustained request admission rate in requests/second "
         "(0 disables rate limiting)"),
    Knob("rate_burst", "REPRO_RATE_BURST", 100.0, "float", False,
         "token-bucket burst capacity in requests"),
    Knob("max_queue", "REPRO_MAX_QUEUE", 32, "int", True,
         "max requests queued or running before 503 load shedding "
         "(0 admits only what can start immediately)"),
    Knob("max_concurrent", "REPRO_MAX_CONCURRENT", 4, "int", False,
         "request evaluations running at once"),
    Knob("request_deadline", "REPRO_DEADLINE", 300.0, "float", True,
         "default per-request deadline in seconds (0 disables)"),
    Knob("breaker_threshold", "REPRO_BREAKER_THRESHOLD", 3, "int", True,
         "consecutive crash-degraded evaluations of one spec before "
         "its circuit breaker opens (0 disables)"),
    Knob("breaker_cooldown", "REPRO_BREAKER_COOLDOWN", 30.0, "float", True,
         "seconds a tripped spec stays quarantined before one probe "
         "is allowed through"),
    Knob("drain_grace", "REPRO_DRAIN_GRACE", 10.0, "float", True,
         "seconds a draining server waits for in-flight requests "
         "after SIGTERM/SIGINT"),
    Knob("serve_jobs", "REPRO_SERVE_JOBS", 2, "int", False,
         "size of the worker pool all requests share (clamped to >= 2: "
         "a crash stays in a worker, and SIGALRM cannot fire on the "
         "service's executor threads)"),
    Knob("read_timeout", "REPRO_READ_TIMEOUT", 10.0, "float", False,
         "seconds the HTTP layer waits for a slow client request "
         "before answering 408"),
    Knob("stderr_tail_bytes", "REPRO_STDERR_TAIL", 4096, "int", False,
         "bound on the deduplicated worker-stderr tail attached to "
         "job failures"),
)

_KNOBS_BY_NAME: dict[str, Knob] = {knob.name: knob for knob in KNOBS}


@dataclass(frozen=True)
class ResilSettings:
    """Resolved values of every knob (see the module doc for semantics)."""

    worker_timeout: float = 600.0
    retries: int = 2
    backoff: float = 0.25
    rate_limit: float = 50.0
    rate_burst: float = 100.0
    max_queue: int = 32
    max_concurrent: int = 4
    request_deadline: float = 300.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    drain_grace: float = 10.0
    serve_jobs: int = 2
    read_timeout: float = 10.0
    stderr_tail_bytes: int = 4096

    def describe(self) -> list[dict[str, object]]:
        """One row per knob: value, source, env name, documentation."""
        rows: list[dict[str, object]] = []
        for knob in KNOBS:
            value = getattr(self, knob.name)
            rows.append({
                "name": knob.name,
                "value": value,
                "env": knob.env,
                "default": knob.default,
                "source": _source_of(knob, value),
                "description": knob.description,
            })
        return rows

    def lines(self) -> list[str]:
        """Human-readable ``--print-config`` dump."""
        width = max(len(knob.name) for knob in KNOBS)
        out = []
        for row in self.describe():
            out.append(
                f"{str(row['name']):<{width}s} = {row['value']!r:<8} "
                f"[{row['source']}]  ({row['env']}) {row['description']}"
            )
        return out


def _source_of(knob: Knob, value: Number) -> str:
    """Best-effort provenance label for one resolved value."""
    env_value = _from_env(knob)
    if env_value is not None and env_value == value:
        return "env"
    if value == knob.default:
        return "default"
    return "override"


def _from_env(knob: Knob) -> Optional[Number]:
    """The knob's environment value, if set and valid."""
    raw = os.environ.get(knob.env, "").strip()
    if raw:
        parsed = knob.parse(raw)
        if parsed is not None:
            return parsed
    if knob.name == "worker_timeout":
        legacy = os.environ.get(ENV_LEGACY_TIMEOUT, "").strip()
        if legacy:
            parsed = knob.parse(legacy)
            # The legacy variable keeps its historical semantics:
            # non-positive values fall back to the default.
            if parsed is not None and parsed > 0:
                return parsed
    return None


def resolve(**overrides: Optional[Number]) -> ResilSettings:
    """Resolve every knob: explicit override, then env, then default.

    ``None`` overrides are ignored (so call sites can pass optional CLI
    arguments straight through).  Unknown names raise ``TypeError``
    rather than silently configuring nothing.
    """
    unknown = sorted(set(overrides) - set(_KNOBS_BY_NAME))
    if unknown:
        raise TypeError(
            f"unknown settings override(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(_KNOBS_BY_NAME))}"
        )
    values: dict[str, Number] = {}
    for knob in KNOBS:
        override = overrides.get(knob.name)
        if override is not None and override >= 0 and not (
            override == 0 and not knob.zero_ok
        ):
            value = override
        else:
            env_value = _from_env(knob)
            value = env_value if env_value is not None else knob.default
        values[knob.name] = int(value) if knob.kind == "int" else float(value)
    return ResilSettings(**values)  # type: ignore[arg-type]


def field_names() -> tuple[str, ...]:
    """Every settings field, in declaration order (tests, docs)."""
    return tuple(f.name for f in fields(ResilSettings))
