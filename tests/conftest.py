"""Shared fixtures."""

import concurrent.futures

import pytest


@pytest.fixture
def pools(monkeypatch):
    """Replaces the process pool with one that maps in this process; returns
    the pools the code under test asked for, each with its size and the
    number of times its context closed it."""
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.closes = 0
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.closes += 1

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return made
