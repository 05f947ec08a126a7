"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import multiprocessing
import os

import numpy as np
import pytest

from repro import CompleteTopology, RandomRegularTopology
from repro.kernel.backends import base

#: the suites that fork worker pools and map shared segments
POOL_SUITES = ("tests/faults/", "tests/kernel/test_sharded.py")
#: seconds one of their tests may take before the run is ended
POOL_TEST_DEADLINE = 60
_REAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended while plugins configure, so fd 2 is
    # the caller's stderr here: the deadline below ends the process,
    # and a traceback written into a capture file would die with it
    config.stash[_REAL_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_REAL_STDERR])


def _shm_names():
    try:
        return {name for name in os.listdir("/dev/shm")
                if not name.startswith(".")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture(autouse=True)
def pool_deadline_and_leak_audit(request):
    """For :data:`POOL_SUITES`: a hang ends the run after
    :data:`POOL_TEST_DEADLINE` seconds with every thread's traceback
    (``pytest-timeout`` is not a dependency; a pool that waits for a
    dead worker would otherwise never return), and a test leaves
    behind no ``/dev/shm`` name and no child process that was not
    there before it."""
    if not request.node.nodeid.startswith(POOL_SUITES):
        yield
        return
    shm_before = _shm_names()
    children_before = set(multiprocessing.active_children())
    faulthandler.dump_traceback_later(
        POOL_TEST_DEADLINE, exit=True,
        file=request.config.stash[_REAL_STDERR],
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert _shm_names() <= shm_before, "leaked /dev/shm segments"
    leaked = set(multiprocessing.active_children()) - children_before
    assert not leaked, f"left child processes behind: {leaked}"


@pytest.fixture
def rng():
    """A fixed-seed generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def complete_100():
    """A small complete topology shared across tests."""
    return CompleteTopology(100)


@pytest.fixture(scope="session")
def regular_200_6():
    """A 6-regular random graph on 200 nodes (session-cached: generation
    is the expensive part)."""
    return RandomRegularTopology(200, 6, seed=777)


@pytest.fixture
def scan_sizes(monkeypatch):
    """The pending-set size of every first-occurrence scan the planner
    runs during the test, in call order: what a plan cost, as a count."""
    sizes = []
    scan = base.first_occurrence_ready

    def counting(chunk_i, *rest):
        sizes.append(len(chunk_i))
        return scan(chunk_i, *rest)

    monkeypatch.setattr(base, "first_occurrence_ready", counting)
    return sizes
