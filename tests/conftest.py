"""Shared test helpers, and the --figures=PATH option: at session end it
writes the figures that tests record as a "figures" property ({criterion:
{name: value}}, see test_acceptance._report) to PATH as JSON, at full
precision, with a "meta" criterion that holds numpy's version. Give it as
--figures=PATH: pytest picks its rootdir before it reads this file, and a
separate PATH argument that exists would count as a test path there."""

import json
import tracemalloc

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption("--figures", metavar="PATH", default=None,
                     help="write the recorded acceptance figures to PATH as JSON")


def pytest_sessionfinish(session):
    path = session.config.getoption("--figures")
    if path:
        figures = {"meta": {"numpy": np.__version__}}
        for item in session.items:
            for key, value in item.user_properties:
                if key == "figures":
                    figures.update(value)
        with open(path, "w") as fh:
            # json writes a float as its repr, the shortest string that reads back the same bits
            json.dump(dict(sorted(figures.items())), fh, indent=1)
            fh.write("\n")


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
