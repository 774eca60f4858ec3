"""Resilient experiment execution: supervision, journaling, fault injection.

The package has four pillars, each in its own module:

* :mod:`repro.resil.atomic` — atomic/durable file writes and checksum
  framing (torn-write detection);
* :mod:`repro.resil.chaos` — the deterministic fault-injection harness
  behind ``REPRO_CHAOS`` / ``--chaos``;
* :mod:`repro.resil.journal` — the append-only checkpoint/resume run
  manifest;
* :mod:`repro.resil.supervisor` — the supervised worker pool with
  timeouts, retries, and crash isolation;
* :mod:`repro.resil.settings` — the one typed resolver for every
  ``REPRO_*`` resilience/serving knob (``hpe-repro serve
  --print-config`` dumps it).

The experiment runner (:mod:`repro.experiments.runner`) threads them
together; :class:`MatrixInterrupted` and :data:`EXIT_INTERRUPTED` are
the contract between an interrupted ``run_scenario`` and the CLI.
"""

from __future__ import annotations

import os

from repro.resil.atomic import (
    TornPayloadError,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    frame_payload,
    is_framed,
    unframe_payload,
)
from repro.resil.chaos import (
    CHAOS_CRASH_EXIT,
    ENV_CHAOS,
    ChaosSpec,
    ChaosSpecError,
)
from repro.resil.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    JournalSummary,
    RunJournal,
)
from repro.resil.settings import KNOBS, ResilSettings
from repro.resil.settings import resolve as resolve_settings
from repro.resil.supervisor import (
    JobFailure,
    JobOutcome,
    SupervisorInterrupted,
    SupervisorStats,
    WorkerSupervisor,
    compact_tail,
)

#: Exit status of a matrix run stopped by SIGTERM/``KeyboardInterrupt``
#: after a clean shutdown (journal flushed, pool terminated).  75 is
#: ``EX_TEMPFAIL`` — "try again later", which ``hpe-repro resume`` does.
EXIT_INTERRUPTED = 75

#: Set to ``0`` to disable run journaling even when the cache is on.
ENV_JOURNAL = "REPRO_JOURNAL"


class MatrixInterrupted(RuntimeError):
    """A matrix run was interrupted after a clean shutdown.

    Carries the ``run_id`` whose journal records the completed jobs, so
    the CLI can print a resume hint and exit :data:`EXIT_INTERRUPTED`.
    """

    def __init__(self, run_id: str, completed: int, remaining: int) -> None:
        super().__init__(
            f"matrix run {run_id} interrupted: {completed} job(s) "
            f"completed, {remaining} remaining"
        )
        self.run_id = run_id
        self.completed = completed
        self.remaining = remaining


def journal_enabled() -> bool:
    """Is run journaling on?  Default yes; ``REPRO_JOURNAL=0`` disables."""
    return os.environ.get(ENV_JOURNAL, "1").strip().lower() not in (
        "0", "false", "no", "off",
    )


__all__ = [
    "CHAOS_CRASH_EXIT",
    "ENV_CHAOS",
    "ENV_JOURNAL",
    "EXIT_INTERRUPTED",
    "KNOBS",
    "ResilSettings",
    "ChaosSpec",
    "ChaosSpecError",
    "JOURNAL_SCHEMA_VERSION",
    "JobFailure",
    "JobOutcome",
    "JournalError",
    "JournalSummary",
    "MatrixInterrupted",
    "RunJournal",
    "SupervisorInterrupted",
    "SupervisorStats",
    "TornPayloadError",
    "WorkerSupervisor",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "compact_tail",
    "frame_payload",
    "is_framed",
    "journal_enabled",
    "resolve_settings",
    "unframe_payload",
]
