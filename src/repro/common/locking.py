"""Inter-process file locking."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator


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
