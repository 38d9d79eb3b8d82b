"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.sim import codegen


@pytest.fixture
def fresh_memo():
    """Isolate a test that repoints the cell cache or the toolchain."""
    codegen._reset_memo()
    yield
    codegen._reset_memo()
