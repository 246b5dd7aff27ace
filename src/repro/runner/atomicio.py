"""Durable file writes for the result cache.

Crash-safety reduces to a three-step dance — write to a temp file,
``fsync`` it, ``os.replace`` into place — plus a directory fsync so the
rename itself survives a power cut.  A report killed mid-run therefore
leaves whole cache entries or none, and resumes from the ones it wrote.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_bytes", "fsync_dir"]


def fsync_dir(path: Union[str, os.PathLike]) -> None:
    """fsync a directory so a completed rename survives power loss.

    Best-effort: some filesystems (and platforms) refuse ``open()`` on
    directories; losing the *directory* sync only risks the entry after
    an OS crash, never a torn file, so failures are swallowed.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, os.PathLike], data: bytes, durable: bool = True
) -> None:
    """Atomically replace ``path`` with ``data``.

    The bytes land in a temp file in the same directory, are fsync'd
    (when ``durable``), and are renamed over the destination, so readers
    see either the old content or the new — never a truncated mix.
    Raises ``OSError`` on failure; the temp file is cleaned up.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(target.parent)

