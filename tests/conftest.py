"""Fixtures shared by the test modules."""

import gc

import pytest

import iconcap


def pytest_report_header(config):
    """Name the copy of the package under test: the source tree, a copy
    or an installed one."""
    return f"iconcap {iconcap.__version__} from {iconcap.__file__}"


@pytest.fixture
def collector_state():
    """Restore the collector's state on entry after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()
