"""Fixtures shared by the test modules."""

import gc

import pytest


@pytest.fixture
def collector_state():
    """Restore the collector's state on entry after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()
