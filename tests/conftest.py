"""Shared fixtures for the tier-1 suite."""

import os

import pytest

from repro.sim import codegen


@pytest.fixture
def fresh_memo():
    """Isolate a test that repoints the cell cache or the toolchain."""
    codegen._reset_memo()
    yield
    codegen._reset_memo()


@pytest.fixture
def kill_worker_once(monkeypatch, tmp_path):
    """Arm a one-shot pool-worker death for the re-dispatch tests.

    ``kill_worker_once("benchmark:mechanism")`` patches
    ``fabric.execute_group`` so that a forked worker executing that
    cell exits (``os._exit(1)``) instead.  The pool forks its workers
    inside each ``run_grid`` call, so every worker — a respawned one
    too — inherits the patch.  The death fires once: the first dying
    worker creates the marker ``tmp_path / "fabric-fail-once"`` with
    ``O_EXCL``, and later executions of the cell run normally.  The
    test process itself never dies.
    """
    from repro.experiments import fabric

    real = fabric.execute_group
    test_pid = os.getpid()
    marker = str(tmp_path / "fabric-fail-once")

    def arm(cell):
        def dying(jobs, *args, **kwargs):
            named = any(f"{j.benchmark}:{j.mechanism}" == cell for j in jobs)
            if named and os.getpid() != test_pid:
                try:
                    fd = os.open(
                        marker, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                    )
                except FileExistsError:
                    pass  # already died once; run normally now
                else:
                    os.close(fd)
                    os._exit(1)
            return real(jobs, *args, **kwargs)

        monkeypatch.setattr(fabric, "execute_group", dying)

    return arm
