"""Crash-safe filesystem primitives shared by caches, traces and reports.

Every artifact this project persists — cache entries, trace files,
experiment tables, JSON outputs — goes through the helpers here instead
of plain ``write_text`` / ``open(..., "w")``.  The write protocol is the
classic atomic-replace sequence:

1. write the full payload to a uniquely-named temporary file *in the
   destination directory* (same filesystem, so the final rename cannot
   degrade to a copy);
2. flush and ``fsync`` the temporary file so the bytes are durable;
3. ``os.replace`` it onto the destination name (atomic on POSIX and on
   NTFS), then best-effort ``fsync`` the directory so the rename itself
   survives a power cut.

A reader therefore sees either the complete previous version or the
complete new version — never a torn half-write.  The checksum helpers
add end-to-end integrity on top: a payload that *was* torn or bit-flipped
by the storage layer is detected at read time instead of being decoded
into silently-wrong numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Union

__all__ = [
    "AtomicLineWriter",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "canonical_json",
    "read_bytes",
    "sha256_hex",
    "payload_checksum",
]

#: Process-local counter making concurrent temp names unique within a PID.
_TMP_COUNTER = 0


def _temp_path(path: Path) -> Path:
    """A unique temporary sibling of ``path`` (same directory/filesystem)."""
    global _TMP_COUNTER
    _TMP_COUNTER += 1
    return path.parent / f".{path.name}.{os.getpid()}.{_TMP_COUNTER}.tmp"


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory entry table after a rename.

    Some filesystems (and all of Windows) refuse directory fds; losing
    the *rename* (not the data) in a crash there is an accepted gap, so
    the failure is ignored rather than propagated.
    """
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


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (tmp + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _temp_path(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        # The temp file is this process's private garbage; removing it on
        # *any* unwind (including KeyboardInterrupt) keeps directories
        # clean without masking the original error.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Durably replace ``path`` with ``text`` (tmp + fsync + rename)."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(
    path: Union[str, Path],
    payload: Any,
    indent: Union[int, None] = None,
    sort_keys: bool = True,
) -> None:
    """Durably replace ``path`` with ``payload`` rendered as JSON."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    atomic_write_bytes(path, (text + "\n").encode("utf-8"))


class AtomicLineWriter:
    """Streaming line sink with the same atomic-replace contract.

    Lines accumulate in a uniquely-named temporary sibling of the
    destination; :meth:`close` fsyncs and renames it into place, so a
    reader never observes a torn file — only the complete document or
    nothing.  :meth:`abort` (or an exception inside the ``with`` block)
    discards the temporary file instead, leaving any previous version of
    the destination untouched.  This is the sanctioned way to stream
    JSONL (traces, journals) from code that lint rule R008 bars
    from calling ``open(..., "w")`` directly.
    """

    def __init__(self, path: Union[str, Path], encoding: str = "utf-8") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = _temp_path(self.path)
        self._handle: Any = open(self._tmp, "w", encoding=encoding)
        self._closed = False

    def write_line(self, line: str) -> None:
        """Append one line (a trailing newline is added)."""
        if self._closed:
            raise ValueError(f"writer for {self.path} is already closed")
        self._handle.write(line + "\n")

    def abort(self) -> None:
        """Discard everything written; the destination is left untouched."""
        if self._closed:
            return
        self._closed = True
        self._handle.close()
        try:
            os.unlink(self._tmp)
        except OSError:
            pass

    def close(self) -> None:
        """Fsync and atomically rename the accumulated lines into place."""
        if self._closed:
            return
        self._closed = True
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            try:
                os.unlink(self._tmp)
            except OSError:
                pass
            raise
        _fsync_directory(self.path.parent)

    def __enter__(self) -> "AtomicLineWriter":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def read_bytes(path: Union[str, Path]) -> bytes:
    """The whole content of ``path``: one unbuffered open and one read."""
    with open(path, "rb", buffering=0) as handle:
        return handle.readall()


#: Canonical JSON text of a payload: sorted keys and no whitespace, so
#: equal values always encode to equal bytes.  One shared encoder serves
#: every checksum and content address (``json.dumps`` with these options
#: builds a new encoder per call); the text is the same.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def sha256_hex(data: bytes) -> str:
    """Full hex SHA-256 of ``data``."""
    return hashlib.sha256(data).hexdigest()


def payload_checksum(payload: Any) -> str:
    """Canonical-JSON SHA-256 of a JSON-compatible payload.

    The canonical form (sorted keys, no whitespace) makes the checksum a
    pure function of the payload's *values*, so a round-tripped entry
    verifies regardless of how its file was formatted.
    """
    return sha256_hex(canonical_json(payload).encode("utf-8"))
