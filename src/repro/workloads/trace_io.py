"""Reading and writing page-touch traces.

A dependency-free interchange format so traces can be captured once and
replayed across machines (or fed in from real instrumentation):

* optionally gzip-compressed text;
* a ``# repro-trace v1`` magic line;
* ``# key=value`` metadata lines (``name`` and ``pattern`` are understood);
* one decimal page number per line.

Example::

    # repro-trace v1
    # name=HSD
    # pattern=II
    0
    1
    ...
"""

from __future__ import annotations

import array
import gzip
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.workloads.base import PatternType, Trace

MAGIC = "# repro-trace v1"

_PATTERN_BY_ROMAN = {pattern.roman: pattern for pattern in PatternType}


class TraceFormatError(ValueError):
    """Raised when a trace file does not follow the v1 format."""


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (gzip-compressed when it ends in .gz)."""
    path = Path(path)
    with _open_text(path, "w") as stream:
        stream.write(MAGIC + "\n")
        stream.write(f"# name={trace.name}\n")
        stream.write(f"# pattern={trace.pattern_type.roman}\n")
        for key, value in sorted(trace.metadata.items()):
            if key in ("name", "pattern"):
                continue
            stream.write(f"# {key}={value}\n")
        for page in trace.pages:
            stream.write(f"{page}\n")


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a v1 trace file written by :func:`save_trace`."""
    path = Path(path)
    pages: list[int] = []
    metadata: dict[str, str] = {}
    name = path.stem
    pattern = PatternType.STREAMING
    with _open_text(path, "r") as stream:
        first = stream.readline().rstrip("\n")
        if first != MAGIC:
            raise TraceFormatError(
                f"{path} is not a repro trace (expected {MAGIC!r}, "
                f"got {first!r})"
            )
        for line_number, line in enumerate(stream, start=2):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" not in body:
                    continue
                key, value = body.split("=", 1)
                key, value = key.strip(), value.strip()
                if key == "name":
                    name = value
                elif key == "pattern":
                    try:
                        pattern = _PATTERN_BY_ROMAN[value]
                    except KeyError:
                        raise TraceFormatError(
                            f"{path}:{line_number}: unknown pattern {value!r}"
                        ) from None
                else:
                    metadata[key] = value
                continue
            try:
                page = int(line)
            except ValueError:
                raise TraceFormatError(
                    f"{path}:{line_number}: expected a page number, "
                    f"got {line!r}"
                ) from None
            if page < 0:
                raise TraceFormatError(
                    f"{path}:{line_number}: negative page number {page}"
                )
            pages.append(page)
    if not pages:
        raise TraceFormatError(f"{path} contains no page references")
    return Trace(name=name, pages=pages, pattern_type=pattern,
                 metadata=metadata)

# --- shared-memory trace store ------------------------------------------
#
# Processes that replay the same traces can share them instead of each
# building its own copy.  The store below packs built traces once into a
# single read-only POSIX shared-memory segment of little-endian int64
# page numbers; other processes map that one buffer and materialise a
# trace at most once each.  The matrix runner does not use it: its
# long-lived workers build their own traces.  Any failure to create or
# attach a segment returns ``None``.


@dataclass(frozen=True)
class StoredTraceMeta:
    """Index entry for one trace inside a shared segment (picklable)."""

    abbr: str
    seed: int
    scale: float
    offset: int  # element offset into the int64 buffer
    count: int
    name: str
    pattern_roman: str
    metadata: tuple  # ((key, value), ...) — kept hashable/picklable
    footprint: int


@dataclass(frozen=True)
class TraceStoreHandle:
    """Everything a worker needs to attach: segment name + index."""

    shm_name: str
    entries: tuple  # tuple[StoredTraceMeta, ...]


class TraceStore:
    """A read-only shared-memory segment holding packed traces.

    The parent calls :meth:`publish` (building the segment and keeping
    ownership for :meth:`unlink`); workers call :meth:`attach` with the
    pickled :class:`TraceStoreHandle` and read traces zero-copy — the
    only per-worker allocation is the ``list[int]`` materialisation,
    which :class:`repro.experiments.runner.TraceCache` performs at most
    once per (app, seed, scale).
    """

    def __init__(self, shm: object, handle: TraceStoreHandle,
                 owner: bool) -> None:
        self._shm = shm
        self._handle = handle
        self._owner = owner
        self._index = {
            (meta.abbr, meta.seed, meta.scale): meta
            for meta in handle.entries
        }

    # -- construction ----------------------------------------------------

    @classmethod
    def publish(
        cls, traces: "dict[tuple[str, int, float], Trace]"
    ) -> "Optional[TraceStore]":
        """Pack ``traces`` into a fresh segment; ``None`` when unavailable.

        Keys are ``(abbr, seed, scale)`` exactly as the runner's trace
        cache uses them.  Returns ``None`` (never raises) when shared
        memory cannot be created — missing module, unwritable /dev/shm,
        or an empty input.
        """
        if not traces:
            return None
        try:
            from multiprocessing import shared_memory
        except ImportError:  # pragma: no cover - stdlib, but stay gated
            return None
        total = sum(len(trace.pages) for trace in traces.values())
        if not total:
            return None
        try:
            shm = shared_memory.SharedMemory(create=True, size=total * 8)
        except (OSError, ValueError):
            return None
        entries = []
        offset = 0
        for (abbr, seed, scale), trace in traces.items():
            count = len(trace.pages)
            packed = array.array("q", trace.pages)
            shm.buf[offset * 8:(offset + count) * 8] = packed.tobytes()
            entries.append(StoredTraceMeta(
                abbr=abbr.upper(), seed=seed, scale=scale,
                offset=offset, count=count,
                name=trace.name,
                pattern_roman=trace.pattern_type.roman,
                metadata=tuple(sorted(
                    (str(k), str(v)) for k, v in trace.metadata.items()
                )),
                footprint=trace.footprint_pages,
            ))
            offset += count
        handle = TraceStoreHandle(shm_name=shm.name, entries=tuple(entries))
        return cls(shm, handle, owner=True)

    @classmethod
    def attach(cls, handle: TraceStoreHandle) -> "Optional[TraceStore]":
        """Map an existing segment; ``None`` when it cannot be attached."""
        try:
            from multiprocessing import shared_memory
        except ImportError:  # pragma: no cover - stdlib, but stay gated
            return None
        try:
            shm = shared_memory.SharedMemory(name=handle.shm_name)
        except (OSError, ValueError):
            return None
        return cls(shm, handle, owner=False)

    # -- access ----------------------------------------------------------

    @property
    def handle(self) -> TraceStoreHandle:
        return self._handle

    def keys(self) -> "list[tuple[str, int, float]]":
        return list(self._index)

    def get(self, abbr: str, seed: int, scale: float) -> "Optional[Trace]":
        """Rebuild the stored trace, or ``None`` if it is not in the store."""
        meta = self._index.get((abbr.upper(), seed, scale))
        if meta is None:
            return None
        view = memoryview(self._shm.buf).cast("q")  # type: ignore[attr-defined]
        pages = list(view[meta.offset:meta.offset + meta.count])
        del view
        return Trace(
            name=meta.name,
            pages=pages,
            pattern_type=_PATTERN_BY_ROMAN[meta.pattern_roman],
            metadata=dict(meta.metadata),
            _footprint=meta.footprint,
        )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (safe to call twice)."""
        try:
            self._shm.close()  # type: ignore[attr-defined]
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; safe if already gone)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()  # type: ignore[attr-defined]
        except (OSError, FileNotFoundError):
            pass
