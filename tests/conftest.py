import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from hashquant import pool

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def set_usable_cpus(monkeypatch):
    """Call with a count: the library then sees that many usable CPUs."""

    def set_count(count):
        monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_count


@pytest.fixture
def opened_pools(monkeypatch):
    """The max_workers of every thread pool the library opens in the test."""
    opened = []

    class Recording(pool.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(pool, "ThreadPoolExecutor", Recording)
    return opened


@pytest.fixture
def forced_pool(monkeypatch, set_usable_cpus, opened_pools):
    """A build-pool gate of one multiply-add per slice and 3 usable CPUs; the pools opened."""
    monkeypatch.setattr(pool, "MIN_SLICE_MACS", 1)
    set_usable_cpus(3)
    return opened_pools
