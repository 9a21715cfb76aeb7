"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """(fn(), the most bytes fn had allocated at once while it ran):
    tracemalloc sees only what is allocated after it starts, so what was
    live before the call is not counted."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - start


@pytest.fixture
def traced_peak():
    return _traced_peak
