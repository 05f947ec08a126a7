"""Property: however a one-sided list collides, the segmented applier
equals the scalar oracle (``tests/kernel/one_sided_oracle.py``)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import MeanAggregate

from ..kernel.one_sided_oracle import MIXED_FUNCTIONS, check_against_oracle


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(2, 400),
    steps=st.integers(0, 5000),
    mixed_columns=st.booleans(),
    adopt=st.sampled_from(["none", "mixed", "all"]),
    stale=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_segmented_one_sided_equals_scalar(
    nodes, steps, mixed_columns, adopt, stale, seed
):
    # few nodes against many steps: every window is dense in
    # collisions, chains and repeated partners included
    rng = np.random.default_rng(seed)
    functions = MIXED_FUNCTIONS if mixed_columns else (MeanAggregate(),)
    k = len(functions)
    fi = rng.integers(0, nodes, steps)
    fj = (fi + rng.integers(1, nodes, steps)) % nodes
    adopt_i = {
        "none": None,
        "mixed": rng.random(steps) < 0.5,
        "all": np.ones(steps, dtype=bool),
    }[adopt]
    payload = rng.normal(0.0, 9.0, (steps, k)) if stale else None
    check_against_oracle(
        functions, nodes, fi, fj, adopt_i, payload, seed=seed
    )
