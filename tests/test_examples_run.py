"""Smoke tests: every example script runs cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run(script, *args, timeout=180):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "SpatialViolation" in result.stdout
        assert "TemporalViolation" in result.stdout
        assert "recovered" in result.stdout

    def test_mind_control_defense(self):
        result = _run("mind_control_defense.py")
        assert result.returncode == 0, result.stderr
        assert "BLOCKED" in result.stdout
        assert "corrupted silently" in result.stdout

    def test_device_malloc_fragmentation(self):
        result = _run("device_malloc_fragmentation.py")
        assert result.returncode == 0, result.stderr
        assert "stock malloc() waste" in result.stdout

    def test_mechanism_shootout(self):
        result = _run("mechanism_shootout.py")
        assert result.returncode == 0, result.stderr
        assert "Violation Test" in result.stdout
        assert "DETECTED" in result.stdout
        assert "missed" in result.stdout

    def test_trace_workflow(self, tmp_path):
        result = _run("trace_workflow.py", str(tmp_path / "traces"))
        assert result.returncode == 0, result.stderr
        assert "Replaying" in result.stdout
        assert (tmp_path / "traces" / "gaussian-w16.npz").exists()

    @pytest.mark.slow
    def test_performance_tour_quick_set(self):
        result = _run("performance_tour.py", timeout=300)
        assert result.returncode == 0, result.stderr
        assert "geomean" in result.stdout
