"""How the reproduction writes files.

Every on-disk store (trace and cell caches, built native units,
telemetry exports, the run ledger) writes through this module:
:func:`publish` replaces a whole file, :func:`append_line` adds one
line.  Nothing is synced: the stores survive a killed process, not a
power loss.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, suppress
from typing import Callable, Iterator


@contextmanager
def locked(path: str) -> Iterator[None]:
    """Hold an exclusive ``flock`` on the sidecar file *path*.

    ``flock`` serializes distinct file descriptors even within one
    process, so threads and processes are covered alike.  Platforms
    without ``fcntl`` (or a lock file that cannot be opened) degrade
    to no lock at all: every caller stays correct without it — the
    lock only saves redundant work or keeps appends whole.
    """
    fd = None
    try:
        import fcntl

        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(fd, fcntl.LOCK_EX)
    except (ImportError, OSError):
        if fd is not None:
            os.close(fd)
            fd = None
    try:
        yield
    finally:
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)


def publish(path: str, write: Callable[[str], object]) -> str:
    """Atomically replace *path* with what ``write(tmp)`` creates.

    *write* gets a same-directory temp path ``<path>.tmp.<pid>.<thread
    id>`` — a path, not a handle, so the C compiler can write it.  The
    temp file is renamed over *path*, or removed if anything fails.
    Parent directories are created; returns *path*.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def append_line(path: str, line: str) -> None:
    """Append *line* to *path* in one ``O_APPEND`` write.

    The write holds ``<path>.lock``, which keeps writer threads from
    interleaving and lets ledger compaction exclude appends.  A write
    cut short (full disk, file-size limit) is truncated away before
    the error propagates, so the next append cannot join a torn line.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with locked(f"{path}.lock"):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            start = os.fstat(fd).st_size
            rest = memoryview(line.encode("utf-8"))
            try:
                while rest:  # one write unless the first is cut short
                    rest = rest[os.write(fd, rest):]
            except OSError:
                os.ftruncate(fd, start)
                raise
        finally:
            os.close(fd)


__all__ = ["append_line", "locked", "publish"]
