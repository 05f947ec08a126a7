"""Property: whatever the tile, the functions tuple, the index dtype
and the batch length — across every tile edge — the batch kernel
equals one scalar ``combine`` per step and column, bit for bit, and a
kernel that lets a function see a foreign column's values fails here
on the ``RuntimeWarning`` it raises."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AggregateFunction,
    GeometricMeanAggregate,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
)
from repro.kernel import TheoremSAggregate, VectorizedBackend
from repro.kernel.backends import apply_disjoint_batch, base, vectorized

from ..kernel.test_batch_kernel import SPECIALS, bits
from .test_planner import scalar_steps

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class Scaled(AggregateFunction):
    """Scalar ``combine`` only: the ``frompyfunc`` fallback and the
    default ``combine_into``. Two instances are one aggregate exactly
    when their weights are equal."""

    def __init__(self, weight):
        self.weight = weight

    def combine(self, x, y):
        return (x + y) * self.weight


BUILDERS = (
    MeanAggregate, MaxAggregate, MinAggregate, GeometricMeanAggregate,
    TheoremSAggregate, lambda: Scaled(0.5), lambda: Scaled(0.375),
)
#: batch lengths as (tiles, steps beyond them): none, one, and every
#: side of a tile edge
LENGTHS = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)]


def column_values(function, rows, rng):
    """Values ``function`` accepts: positive for the geometric mean,
    signed zeros, infinities and NaN among a max / min column's."""
    if isinstance(function, GeometricMeanAggregate):
        return rng.lognormal(1.0, 1.0, rows)
    values = rng.normal(10.0, 4.0, rows)
    if isinstance(function, (MaxAggregate, MinAggregate)):
        special = rng.random(rows) < 0.3
        values[special] = rng.choice(SPECIALS, int(special.sum()))
    return values


@settings(max_examples=80, deadline=None)
@given(
    tile=st.sampled_from([3, 7, 64]),
    length=st.sampled_from(LENGTHS),
    picks=st.lists(st.integers(0, len(BUILDERS) - 1), min_size=1,
                   max_size=8),
    uniform=st.booleans(),
    dtype=st.sampled_from([np.int32, np.intp]),
    seed=st.integers(0, 2**31),
)
def test_batch_equals_scalar_steps_across_tile_edges(
    tile, length, picks, uniform, dtype, seed
):
    steps = length[0] * tile + length[1]
    if uniform:
        functions = (BUILDERS[picks[0]](),) * len(picks)
    else:
        functions = tuple(BUILDERS[pick]() for pick in picks)
    rng = np.random.default_rng(seed)
    rows = 2 * steps + 5
    actual = np.column_stack(
        [column_values(function, rows, rng) for function in functions]
    )
    expected = actual.copy()
    nodes = rng.permutation(rows).astype(dtype)
    batch_i, batch_j = nodes[:steps], nodes[steps:2 * steps]
    with mock.patch.object(base, "BATCH_TILE", tile):
        apply_disjoint_batch(actual, functions, batch_i, batch_j)
    scalar_steps(expected, functions, batch_i.tolist(), batch_j.tolist())
    assert np.array_equal(bits(actual), bits(expected))


def test_groups_are_by_class_and_state():
    half, other_half, third = Scaled(0.5), Scaled(0.5), Scaled(1 / 3)
    functions = (third, half, MeanAggregate(), other_half, TheoremSAggregate())
    lead, own, foreign = base.column_groups(functions)
    # equal weights share the one block pass; neither the third weight
    # nor the mean — the same arithmetic in another class — joins them
    assert (lead, own) == (half, 1)
    assert [c for c, _ in foreign] == [0, 2, 4]
    assert all(functions[c] is function for c, function in foreign)
    # a uniform tuple, as every epoch rebuild's, has nothing to isolate
    assert base.column_groups((half,) * 4) == (half, 0, ())


def test_groups_are_worked_out_once_per_functions_tuple(monkeypatch):
    n = 20_000
    functions = (MeanAggregate(), MeanAggregate(), MaxAggregate(),
                 MinAggregate(), MeanAggregate())
    rng = np.random.default_rng(5)
    actual = rng.normal(10.0, 4.0, (n, len(functions)))
    expected = actual.copy()
    exch_i = np.arange(n)
    exch_j = (exch_i + rng.integers(1, n, n)) % n
    kernel = mock.Mock(side_effect=apply_disjoint_batch)
    monkeypatch.setattr(vectorized, "PAIR_CHUNK", 64)
    before = base.column_groups.cache_info()
    with mock.patch.object(vectorized, "apply_disjoint_batch", kernel):
        VectorizedBackend().apply_exchanges(
            actual, functions, exch_i, exch_j
        )
    after = base.column_groups.cache_info()
    assert kernel.call_count >= 270
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == kernel.call_count - 1
    scalar_steps(expected, functions, exch_i.tolist(), exch_j.tolist())
    assert np.array_equal(bits(actual), bits(expected))
