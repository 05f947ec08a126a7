"""Property: whatever the shape, layout and mask, ``column_moments``
equals numpy's ``var(ddof=1)`` / ``mean()`` of a copy of the selected
rows, bit for bit, and leaves the matrix it read untouched."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernel.backends import MomentScratch, column_moments


def numpy_moments(column):
    """What the engine computed before the kernel existed."""
    column = column.copy()
    if len(column) == 0:
        return 0.0, float("nan")
    if len(column) == 1:
        return 0.0, float(column[0])
    return float(column.var(ddof=1)), float(column.mean())


def laid_out(values, layout):
    """``values`` as a C-ordered, F-ordered or sliced (every other row
    and column of a larger block) matrix."""
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "sliced":
        rows, k = values.shape
        block = np.full((2 * rows + 1, 2 * k + 1), np.nan)
        block[1::2, 1::2] = values
        return block[1::2, 1::2]
    return np.ascontiguousarray(values)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.sampled_from([0, 1, 2, 5000]),
    k=st.sampled_from([1, 5]),
    masked=st.sampled_from(["none", "partial", "all-false", "one"]),
    layout=st.sampled_from(["C", "F", "sliced"]),
    reuse_scratch=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_equals_numpy_and_only_reads(rows, k, masked, layout,
                                     reuse_scratch, seed):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-3, 4, k)
    matrix = laid_out(rng.normal(10.0, 4.0, (rows, k)) * scales, layout)
    mask = {
        "none": None,
        "partial": rng.random(rows) < 0.6,
        "all-false": np.zeros(rows, dtype=bool),
        "one": np.arange(rows) == rows // 2,
    }[masked]
    columns = list(rng.permutation(k))
    before = matrix.copy()
    scratch = MomentScratch() if reuse_scratch else None
    if reuse_scratch:
        # a buffer that served a larger matrix still serves this one
        scratch.rows(rows + 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = column_moments(matrix, columns, mask, scratch)
    assert np.array_equal(matrix, before, equal_nan=True)
    selected = slice(None) if mask is None else mask
    expected = [numpy_moments(matrix[:, c][selected]) for c in columns]
    # == on floats: the same bits, nan for the empty selection's mean
    assert len(got) == len(expected)
    for (variance, mean), (want_variance, want_mean) in zip(got, expected):
        assert variance == want_variance
        assert mean == want_mean or (mean != mean and want_mean != want_mean)


def test_single_column_matrix_is_not_reduced_in_place():
    """For k = 1 the column *is* the matrix's buffer; the kernel must
    still square a copy of it."""
    matrix = np.arange(6.0).reshape(6, 1)
    column_moments(matrix, [0])
    assert matrix[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_scratch_is_allocated_once():
    scratch = MomentScratch()
    first = scratch.rows(100)
    assert np.shares_memory(scratch.rows(40), first)
    assert np.shares_memory(scratch.rows(100), first)
    assert len(scratch.rows(101)) == 101
