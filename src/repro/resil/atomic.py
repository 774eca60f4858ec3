"""Atomic, durable, torn-write-detecting file persistence.

Every persistent artefact the harness writes — result-cache entries,
run journals, ``BENCH_*.json`` reports — goes through this
module, so one crash-safety discipline covers them all:

* **Atomicity** — payloads are written to a same-directory temp file and
  published with ``os.replace``; readers never observe a half-written
  file under the final name.
* **Durability** — the temp file is flushed and ``fsync``'d before the
  rename, and the containing directory is fsync'd after it (best
  effort), so a completed write survives power loss.
* **Torn-write detection** — :func:`frame_payload` prepends a magic tag
  and a SHA-256 checksum; :func:`unframe_payload` raises
  :class:`TornPayloadError` when the body does not match, letting cache
  readers treat a corrupt entry as a *miss* instead of a crash.

The custom lint rule REP007 forbids raw ``os.replace`` /
``tempfile.mkstemp`` elsewhere in the package, making this the single
blessed implementation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Union

#: Leading tag of a checksummed payload.  Readers use it to distinguish
#: framed entries from legacy raw pickles (which can never start with
#: these bytes: pickle opcodes never produce ``HPEF``).
MAGIC = b"HPEF1\n"

#: Length of the hex checksum line following :data:`MAGIC`.
_DIGEST_LEN = 64

_HEADER_LEN = len(MAGIC) + _DIGEST_LEN + 1  # trailing newline


class TornPayloadError(ValueError):
    """A framed payload failed its checksum (torn or corrupted write)."""


def frame_payload(payload: bytes) -> bytes:
    """Wrap ``payload`` with the magic tag and its SHA-256 checksum."""
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return MAGIC + digest + b"\n" + payload


def is_framed(data: bytes) -> bool:
    """Does ``data`` start with the checksum frame header?"""
    return data.startswith(MAGIC)


def unframe_payload(data: bytes) -> bytes:
    """Verify and strip the checksum frame of :func:`frame_payload`.

    Raises :class:`TornPayloadError` if the header is truncated or the
    body's checksum does not match — i.e. the write was torn or the file
    was corrupted in place.
    """
    if not data.startswith(MAGIC):
        raise TornPayloadError("payload is not checksum-framed")
    if len(data) < _HEADER_LEN or data[_HEADER_LEN - 1:_HEADER_LEN] != b"\n":
        raise TornPayloadError("framed payload header is truncated")
    recorded = data[len(MAGIC):len(MAGIC) + _DIGEST_LEN]
    body = data[_HEADER_LEN:]
    actual = hashlib.sha256(body).hexdigest().encode("ascii")
    if recorded != actual:
        raise TornPayloadError(
            "payload checksum mismatch (torn or corrupted write)"
        )
    return body


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, Path], payload: bytes, *, fsync: bool = True
) -> None:
    """Write ``payload`` to ``path`` atomically (temp + fsync + replace).

    Safe under concurrent writers: each writer renames its own temp file
    and the last rename wins, so readers always see a complete payload.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as stream:
            stream.write(payload)
            if fsync:
                stream.flush()
                os.fsync(stream.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_directory(path.parent)


def atomic_write_text(
    path: Union[str, Path], text: str, *, fsync: bool = True
) -> None:
    """Atomic UTF-8 text write (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path: Union[str, Path], payload: object, *,
    indent: int = 2, fsync: bool = True,
) -> None:
    """Atomic pretty-printed JSON write (``BENCH_*.json`` and friends)."""
    atomic_write_text(
        path, json.dumps(payload, indent=indent) + "\n", fsync=fsync
    )


def replace_into(tmp: Union[str, Path], path: Union[str, Path]) -> None:
    """Atomically publish an already-written temp file at ``path``.

    For writers that must produce the temp file themselves (e.g. a
    gzip trace written by ``save_trace``); the temp file must live on
    the same filesystem as ``path``.
    """
    os.replace(tmp, path)
    _fsync_directory(Path(path).parent)
