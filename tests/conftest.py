"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CompleteTopology, RandomRegularTopology
from repro.kernel.backends import base


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
