"""Persistent, content-addressed caching of simulation results.

Results are cached on disk so that repeated experiment runs — within one
process, across processes of a parallel matrix, and across sessions —
never redo a simulation whose inputs have not changed.  A
:class:`~repro.sim.results.SimulationResult` is keyed by its
:meth:`repro.scenarios.spec.ScenarioSpec.digest`, a SHA-256 of
everything that determines it: application, policy, oversubscription
rate, trace seed and scale, the full :class:`~repro.sim.config.GPUConfig`,
the :class:`~repro.core.hpe.HPEConfig` (for HPE runs), and a cache
schema version.  Values are pickled whole (including the live policy
object in ``extras`` that the figure harnesses introspect).

Built traces are not cached here: building one costs less than reading
a stored copy back, so each process keeps only its in-memory
:class:`repro.experiments.runner.TraceCache`.

Environment variables
---------------------
``REPRO_CACHE_DIR``
    Cache directory (default ``~/.cache/hpe-repro``).
``REPRO_CACHE``
    Set to ``0`` / ``off`` / ``false`` / ``no`` to disable caching.

Writes are atomic and durable (temp file + fsync + ``os.replace`` via
:mod:`repro.resil.atomic`), so concurrent workers of a parallel matrix
can share one cache directory without locking; the worst case is the
same entry being computed twice and one write winning.  Result entries
are checksum-framed: a torn or corrupted entry fails verification on
read and is treated as a *miss* (recompute heals it), never a crash.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.resil import atomic as resil_atomic
from repro.resil import chaos as resil_chaos
from repro.sim.results import SimulationResult

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

#: Bump when the simulator's observable behaviour changes, so stale
#: results from an older code generation can never be returned.
#: v2: HIRStats grew ``empty_transfers`` (old pickles lack the field).
#: v3: fault-around neighbours migrate before the demand page (a
#:     prefetch eviction could previously evict the page being
#:     serviced), changing prefetch-run metrics.
#: v4: the canonical identity string is ScenarioSpec.canonical() — it
#:     gained the ``family`` and ``params`` fields, so every digest
#:     moved; old entries are unreachable, not wrong.
CACHE_SCHEMA_VERSION = 4

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_ENABLED = "REPRO_CACHE"

_FALSEY = {"0", "off", "false", "no", "disabled"}

#: Explicit overrides set by :func:`configure` (CLI ``--no-cache`` etc.);
#: ``None`` means "defer to the environment".
_enabled_override: Optional[bool] = None
_dir_override: Optional[Path] = None


def configure(
    enabled: Optional[bool] = None,
    directory: Optional[os.PathLike] = None,
) -> None:
    """Override cache behaviour for this process (wins over env vars)."""
    global _enabled_override, _dir_override, _RESULTS
    if enabled is not None:
        _enabled_override = enabled
    if directory is not None:
        _dir_override = Path(directory)
    _RESULTS = None  # rebuild lazily against the new settings


def cache_enabled() -> bool:
    """Is persistent caching on (configure() override, then env)?"""
    if _enabled_override is not None:
        return _enabled_override
    raw = os.environ.get(ENV_CACHE_ENABLED, "1").strip().lower()
    return raw not in _FALSEY


def cache_dir() -> Path:
    """Root cache directory (configure() override, then env, then default)."""
    if _dir_override is not None:
        return _dir_override
    raw = os.environ.get(ENV_CACHE_DIR)
    if raw:
        return Path(raw)
    return Path.home() / ".cache" / "hpe-repro"


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance."""

    result_hits: int = 0
    result_misses: int = 0
    result_stores: int = 0
    #: Entries whose checksum frame failed verification (torn writes);
    #: every one is also counted as a miss.
    result_corrupt: int = 0

    def observe_into(self, registry: MetricsRegistry) -> None:
        """Expose the tallies as gauges in a ``MetricsRegistry``.

        Gauges, not counters: the backing stats object is process-wide
        and cumulative, so folding it additively per run would
        double-count.
        """
        registry.set_gauge("cache.result_hits", self.result_hits)
        registry.set_gauge("cache.result_misses", self.result_misses)
        registry.set_gauge("cache.result_stores", self.result_stores)
        registry.set_gauge("cache.result_corrupt", self.result_corrupt)


class ResultCache:
    """Disk-backed store of pickled :class:`SimulationResult` objects.

    Every get reads and unpickles the entry afresh, so callers never
    share mutable state.

    On-disk entries are checksum-framed (:mod:`repro.resil.atomic`); a
    frame that fails verification — a torn write from a crashed process,
    or an injected ``REPRO_CHAOS`` tear — is deleted and counted in
    ``stats.result_corrupt``, and the get reports a miss.  Pre-framing
    entries (raw pickles) are still readable.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = Path(directory) if directory else cache_dir() / "results"
        self.stats = CacheStats()

    def _path(self, digest: str) -> Path:
        # Two-level fan-out keeps directory listings manageable.
        return self.directory / digest[:2] / f"{digest}.pkl"

    def get(self, digest: str) -> Optional[SimulationResult]:
        """Return a fresh copy of the cached result, or ``None`` on miss."""
        try:
            data = self._path(digest).read_bytes()
        except OSError:
            self.stats.result_misses += 1
            return None
        if resil_atomic.is_framed(data):
            try:
                payload = resil_atomic.unframe_payload(data)
            except resil_atomic.TornPayloadError:
                # Torn write: delete and report a miss, never a crash.
                self.stats.result_corrupt += 1
                self._drop(digest)
                self.stats.result_misses += 1
                return None
        else:
            payload = data  # pre-framing entry (raw pickle)
        try:
            result = pickle.loads(payload)
        except Exception:
            # Corrupt or incompatible entry: drop it and treat as a miss.
            self._drop(digest)
            self.stats.result_misses += 1
            return None
        self.stats.result_hits += 1
        return result

    def put(self, digest: str, result: SimulationResult) -> None:
        """Store ``result`` under ``digest`` (atomic, last writer wins)."""
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        framed = resil_atomic.frame_payload(payload)
        written = resil_chaos.maybe_corrupt(digest, framed)
        resil_atomic.atomic_write_bytes(self._path(digest), written)
        self.stats.result_stores += 1

    def _drop(self, digest: str) -> None:
        try:
            self._path(digest).unlink()
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every stored result; return the number removed."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.rglob("*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def entry_count(self) -> int:
        """Number of results currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.rglob("*.pkl"))


#: Lazily constructed process-wide singleton (reset by :func:`configure`).
_RESULTS: Optional[ResultCache] = None


def result_cache() -> ResultCache:
    """The process-wide result cache against the current settings."""
    global _RESULTS
    if _RESULTS is None:
        # Worker-local memo by design: each process opens its own handle
        # onto the on-disk cache; entries round-trip through the disk,
        # never through this pointer.
        _RESULTS = ResultCache()  # noqa: REP011
    return _RESULTS


def clear_all() -> int:
    """Remove every cached result; return entries removed."""
    return result_cache().clear()


def describe() -> dict:
    """Summary of the cache state (CLI ``cache info``)."""
    result_dir = result_cache().directory
    result_files = (
        list(result_dir.rglob("*.pkl")) if result_dir.is_dir() else []
    )
    return {
        "enabled": cache_enabled(),
        "directory": str(cache_dir()),
        "schema_version": CACHE_SCHEMA_VERSION,
        "results": len(result_files),
        "result_bytes": sum(f.stat().st_size for f in result_files),
    }
