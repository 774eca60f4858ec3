"""Deterministic fault injection (``REPRO_CHAOS`` / ``--chaos``).

The chaos harness makes the resilience layer testable: it injects the
exact failures a long oversubscription sweep will eventually see —
worker crashes, hangs, transient exceptions, torn cache writes, and a
mid-run SIGTERM — from a compact, *seeded* spec, so every chaotic run is
reproducible and CI can assert precise retry counts and final state.

Spec grammar
------------
A comma-separated list of ``kind=value`` (``kind:value`` also accepted)::

    REPRO_CHAOS="seed=42,crash=0.2,hang=0.1,flaky=0.3,torn=0.5,sigterm=4"

========  ===========================================================
``seed``  integer folded into every decision hash (default 0)
``crash``  probability an attempt's worker dies without returning
           (``os._exit``); fails the attempt as ``WorkerCrash``
           (in-process ``jobs=1`` attempts answer that directly)
``hang``   probability an attempt's worker sleeps past its wall-clock
           timeout; fails the attempt as ``JobTimeout`` (answered
           directly in process)
``flaky``  probability an attempt fails with the transient
           ``ChaosTransientError`` (a failure identity, not a class)
``torn``   probability a result-cache write is torn (truncated) —
           detected later by the checksum frame and treated as a miss
``sigterm`` interrupt the supervising process after this many job
            completions (0 = never)
========  ===========================================================

Every decision is a pure function of ``(seed, kind, job key, attempt)``
via SHA-256 — no RNG state, no ordering sensitivity — so a retried
attempt rolls a fresh, but reproducible, die.  Probabilities of exactly
``1.0`` therefore exhaust retries deterministically (the graceful-
degradation test mode) while small probabilities model recoverable
faults.

The spec travels *textually* with each job a worker process runs
(spawn-safe, and a long-lived pool serves runs with different specs);
the worker activates it for that job, and the cache layer consults the
process-local active spec through :func:`maybe_corrupt`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Optional

#: Environment variable carrying the chaos spec (empty/off by default).
ENV_CHAOS = "REPRO_CHAOS"

#: Exit status used by injected worker crashes (distinct from real ones).
CHAOS_CRASH_EXIT = 73

#: Worker actions, in evaluation (precedence) order.
_ACTIONS = ("crash", "hang", "flaky")


class ChaosSpecError(ValueError):
    """The chaos spec text does not follow the grammar."""


def _roll(seed: int, kind: str, key: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one decision."""
    blob = f"{seed}|{kind}|{key}|{attempt}".encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed, immutable fault-injection configuration."""

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    flaky: float = 0.0
    torn: float = 0.0
    sigterm: int = 0
    #: The original spec text (travels to worker processes verbatim).
    text: str = ""

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse the ``kind=value`` grammar; raises :class:`ChaosSpecError`."""
        values: dict[str, object] = {}
        for raw_part in text.split(","):
            part = raw_part.strip()
            if not part:
                continue
            sep = "=" if "=" in part else ":"
            if sep not in part:
                raise ChaosSpecError(
                    f"chaos spec item {part!r} is not kind=value "
                    "(kinds: seed, crash, hang, flaky, torn, sigterm)"
                )
            kind, _, value_text = part.partition(sep)
            kind = kind.strip().lower()
            value_text = value_text.strip()
            if kind in ("seed", "sigterm"):
                try:
                    values[kind] = int(value_text)
                except ValueError as error:
                    raise ChaosSpecError(
                        f"chaos {kind} must be an integer, got {value_text!r}"
                    ) from error
            elif kind in ("crash", "hang", "flaky", "torn"):
                try:
                    probability = float(value_text)
                except ValueError as error:
                    raise ChaosSpecError(
                        f"chaos {kind} must be a probability, "
                        f"got {value_text!r}"
                    ) from error
                if not 0.0 <= probability <= 1.0:
                    raise ChaosSpecError(
                        f"chaos {kind} probability {probability} "
                        "outside [0, 1]"
                    )
                values[kind] = probability
            else:
                raise ChaosSpecError(
                    f"unknown chaos kind {kind!r} "
                    "(known: seed, crash, hang, flaky, torn, sigterm)"
                )
        sigterm = values.get("sigterm", 0)
        if isinstance(sigterm, int) and sigterm < 0:
            raise ChaosSpecError("chaos sigterm count must be >= 0")
        return cls(text=text, **values)  # type: ignore[arg-type]

    def active(self) -> bool:
        """Does this spec inject anything at all?"""
        return bool(
            self.crash or self.hang or self.flaky or self.torn or self.sigterm
        )

    def worker_action(self, key: str, attempt: int) -> Optional[str]:
        """Injected action for one (job, attempt): crash/hang/flaky/None.

        Kinds are evaluated in fixed precedence order with independent
        deterministic rolls, so the outcome is a pure function of the
        spec, the job key, and the attempt number.
        """
        for kind in _ACTIONS:
            probability: float = getattr(self, kind)
            if probability and _roll(self.seed, kind, key, attempt) < probability:
                return kind
        return None

    def should_tear(self, digest: str) -> bool:
        """Should the cache write for ``digest`` be torn (first write only)?"""
        return bool(self.torn) and _roll(self.seed, "torn", digest, 0) < self.torn

    def should_interrupt(self, completions: int) -> bool:
        """Simulate a SIGTERM once ``completions`` jobs have finished?"""
        return bool(self.sigterm) and completions >= self.sigterm


#: Process-local active spec consulted by the cache-write hook, plus the
#: set of digests already torn (each entry is torn at most once per
#: process so a retried recompute can heal the cache).
_ACTIVE: Optional[ChaosSpec] = None
_TORN_DIGESTS: set[str] = set()


def activate(spec: Optional[ChaosSpec]) -> None:
    """Install ``spec`` as this process's active chaos configuration.

    The set of digests already torn survives the switch: a worker
    activates each job's spec in turn and still tears each digest at
    most once.
    """
    global _ACTIVE
    # Per-process by design: every worker installs its own chaos spec
    # from the job payload; the parent's value is never read back.
    _ACTIVE = spec  # noqa: REP011


def deactivate() -> None:
    """Remove any active chaos configuration and forget torn digests
    (test teardown)."""
    activate(None)
    _TORN_DIGESTS.clear()


def active_spec() -> Optional[ChaosSpec]:
    """The process-local active spec, if any."""
    return _ACTIVE


def from_env() -> Optional[ChaosSpec]:
    """Parse ``REPRO_CHAOS`` (``None`` when unset/empty/inactive)."""
    raw = os.environ.get(ENV_CHAOS, "").strip()
    if not raw:
        return None
    spec = ChaosSpec.parse(raw)
    return spec if spec.active() else None


def resolve(spec: "Optional[ChaosSpec | str]") -> Optional[ChaosSpec]:
    """Normalise a chaos argument: spec object, spec text, or env."""
    if spec is None:
        return from_env()
    if isinstance(spec, str):
        parsed = ChaosSpec.parse(spec)
        return parsed if parsed.active() else None
    return spec if spec.active() else None


def maybe_corrupt(digest: str, payload: bytes) -> bytes:
    """Cache-write hook: return a torn payload when chaos says so.

    Called by :meth:`repro.sim.cache.ResultCache.put` with the framed
    payload about to hit disk.  Tearing truncates the body so the
    checksum frame no longer verifies — exactly what an interrupted
    write produces.  Each digest is torn at most once per process.
    """
    spec = _ACTIVE
    if spec is None or digest in _TORN_DIGESTS:
        return payload
    if not spec.should_tear(digest):
        return payload
    _TORN_DIGESTS.add(digest)
    return payload[:max(1, len(payload) // 2)]
