"""The row kernel behind every batched applier: a function never sees
a foreign column's values, every caller of ``apply_disjoint_batch``
equals ``apply_sequential`` bit for bit at the widths it really hands
over, and a matrix the row view cannot describe is refused by name."""

import warnings

import numpy as np
import pytest

from repro.core import (
    GeometricMeanAggregate,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
)
from repro.errors import SimulationError
from repro.kernel import VectorizedBackend
from repro.kernel.backends import (
    SEGMENT_BATCH,
    apply_disjoint_batch,
    apply_sequential,
    sharded,
)
from repro.kernel.pairs import conflict_free_plan, pairs_pm
from repro.topology import CompleteTopology

STEPS = 10_000
#: what a max / min column may legitimately hold, and a foreign mean
#: would warn about (inf - inf, 1e308 + 1e308) or lose (-0.0)
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
MEANS_AND_MAX = (MeanAggregate(), MaxAggregate(), MeanAggregate(),
                 MeanAggregate())


def bits(matrix):
    return matrix.view(np.int64)


def disjoint_batch(steps=STEPS, seed=3):
    nodes = np.random.default_rng(seed).permutation(2 * steps + 11)
    return nodes[:steps], nodes[steps:2 * steps]


def hostile_matrix(rows, seed=4):
    """Three mean columns beside a max column of :data:`SPECIALS`."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(10.0, 4.0, (rows, len(MEANS_AND_MAX)))
    matrix[:, 1] = rng.choice(SPECIALS, rows)
    return matrix


def sequential(matrix, functions, steps_i, steps_j):
    expected = matrix.copy()
    apply_sequential(expected, functions, steps_i, steps_j)
    return expected


def test_max_column_of_inf_and_nan_beside_means_is_never_averaged():
    batch_i, batch_j = disjoint_batch()
    actual = hostile_matrix(2 * STEPS + 11)
    expected = sequential(actual, MEANS_AND_MAX, batch_i, batch_j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apply_disjoint_batch(actual, MEANS_AND_MAX, batch_i, batch_j)
    assert np.array_equal(bits(actual), bits(expected))


def test_negative_min_column_beside_a_geometric_majority_raises_nothing():
    functions = (GeometricMeanAggregate(), MinAggregate(),
                 GeometricMeanAggregate())
    batch_i, batch_j = disjoint_batch()
    rng = np.random.default_rng(6)
    actual = rng.lognormal(1.0, 1.0, (2 * STEPS + 11, 3))
    actual[:, 1] = -actual[:, 1]
    expected = sequential(actual, functions, batch_i, batch_j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apply_disjoint_batch(actual, functions, batch_i, batch_j)
    assert np.array_equal(bits(actual), bits(expected))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_appliers_share_the_batch_like_one_sequential_pass(workers):
    """What a pool's workers (and the journal replay, worker 0 of 1)
    run, called in-process: int32 bank slices, each applier its share."""
    batch_i, batch_j = disjoint_batch()
    step_i, step_j = batch_i.astype(np.int32), batch_j.astype(np.int32)
    actual = hostile_matrix(2 * STEPS + 11)
    expected = sequential(actual, MEANS_AND_MAX, batch_i, batch_j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for index in range(workers):
            sharded._apply_schedule(
                actual, MEANS_AND_MAX, step_i, step_j,
                [(0, STEPS, SEGMENT_BATCH)], index, workers,
            )
    assert np.array_equal(bits(actual), bits(expected))


def test_pm_halves_on_the_vectorized_backend():
    """A GETPAIR_PM cycle's conflict-free halves are the widest batches
    the in-process backend ever hands the kernel: 50k steps each."""
    n = 100_000
    functions = (MeanAggregate(), MaxAggregate(), MeanAggregate())
    pairs = pairs_pm(CompleteTopology(n), np.random.default_rng(8))
    actual = hostile_matrix(n)[:, :3].copy()
    expected = sequential(actual, functions, pairs[:, 0], pairs[:, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        VectorizedBackend().apply_pairs(
            actual, functions, pairs[:, 0], pairs[:, 1],
            plan=conflict_free_plan("pm", n),
        )
    assert np.array_equal(bits(actual), bits(expected))


@pytest.mark.parametrize("layout", [
    lambda matrix: np.asfortranarray(matrix),
    lambda matrix: np.column_stack((matrix, matrix))[:, 1:4],
    lambda matrix: matrix.astype(np.float32),
], ids=["fortran", "column-sliced", "float32"])
@pytest.mark.parametrize("method", ["apply_exchanges", "apply_pairs"])
def test_a_matrix_without_whole_rows_is_refused_by_name(layout, method):
    functions = (MeanAggregate(),) * 3
    matrix = layout(np.random.default_rng(9).normal(10.0, 4.0, (64, 3)))
    before = matrix.copy()
    steps = np.arange(32)
    with pytest.raises(SimulationError, match="adopt_matrix"):
        getattr(VectorizedBackend(), method)(
            matrix, functions, steps, steps + 32
        )
    assert np.array_equal(matrix, before)
