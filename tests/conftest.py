"""Shared fixtures."""

import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the process pool with one that maps in this process; returns
    the list of the sizes the code under test asked its pools for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes
