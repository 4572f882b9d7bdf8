"""Shared fixtures and hypothesis configuration."""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Numeric property tests routinely exceed hypothesis' default 200ms deadline
# (adaptive quadrature, FFTs).  Disable the deadline and keep example counts
# modest so the whole suite stays fast.
settings.register_profile(
    "vmma",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("vmma")


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail any test that leaves a thread running: the engines join their
    draw thread before a call returns or raises."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still running after the test: {left}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_grid(values, spacing=0.1):
    from vmma.fields import FieldGrid

    return FieldGrid(values=np.asarray(values, dtype=np.float64), spacing=spacing)
