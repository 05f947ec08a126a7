"""Property-based tests (hypothesis) on the core invariants.

These encode the paper's structural guarantees:

* mass conservation — the elementary step and every full cycle conserve
  the vector sum exactly, for *any* inputs (§3.2: "the elementary
  variance reduction step … does not change the sum");
* monotone variance — no pair sequence can increase the variance;
* contraction — values stay within the initial [min, max] envelope;
* aggregate algebra — AGGREGATE functions are symmetric and bounded;
* adversary restrictions — the §3 invariants restricted to honest
  nodes survive any adversary the kernel can express (lying conserves
  all mass, a targeted partition conserves honest mass, injection can
  only move honest values inside the honest∪injected envelope).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.avg import empirical_mean, empirical_variance
from repro.core import (
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
)
from repro.kernel import (
    AdversarySpec,
    GossipEngine,
    PairProtocolSpec,
    Scenario,
)
from repro.topology import CompleteTopology

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)

value_lists = st.lists(finite_floats, min_size=4, max_size=64)

pair_indices = st.tuples(st.integers(0, 63), st.integers(0, 63))


def elementary_step(values, i, j):
    """Figure 2's elementary step ``a_i = a_j = AGGREGATE(a_i, a_j)`` on
    a copy of ``values``, with the two indices folded into range and
    made distinct. Returns (before, after)."""
    before = np.asarray(values, dtype=np.float64)
    i, j = i % len(before), j % len(before)
    if i == j:
        j = (j + 1) % len(before)
    after = before.copy()
    after[i] = after[j] = MeanAggregate().combine(before[i], before[j])
    return before, after


def avg_run(values, selector, cycles, seed):
    """AVG over ``values`` on the complete overlay: the kernel result
    and the final values."""
    scenario = Scenario(
        CompleteTopology(len(values)),
        np.asarray(values, dtype=np.float64),
        pair_protocol=PairProtocolSpec(selector),
        cycles=cycles,
        seed=seed,
    )
    with GossipEngine(scenario) as engine:
        return engine.run(), engine.alive_column("avg")


class TestElementaryStepProperties:
    @given(values=value_lists, i=st.integers(0, 1000), j=st.integers(0, 1000))
    def test_mass_conserved(self, values, i, j):
        before, after = elementary_step(values, i, j)
        assert math.isclose(after.sum(), before.sum(), rel_tol=1e-12,
                            abs_tol=1e-6)

    @given(values=value_lists, i=st.integers(0, 1000), j=st.integers(0, 1000))
    def test_variance_never_increases(self, values, i, j):
        before, after = elementary_step(values, i, j)
        variance = empirical_variance(before)
        # tiny float-noise allowance scaled to the data magnitude
        scale = max(abs(variance), 1.0)
        assert empirical_variance(after) <= variance + 1e-9 * scale

    @given(values=value_lists, i=st.integers(0, 1000), j=st.integers(0, 1000))
    def test_envelope_contracts(self, values, i, j):
        before, after = elementary_step(values, i, j)
        low, high = before.min(), before.max()
        assert after.min() >= low - 1e-9 * max(abs(low), 1.0)
        assert after.max() <= high + 1e-9 * max(abs(high), 1.0)


class TestFullRunProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=4, max_size=40),
        cycles=st.integers(0, 5),
        seed=st.integers(0, 2**31),
    )
    def test_run_conserves_mean_seq(self, values, cycles, seed):
        _, final = avg_run(values, "seq", cycles, seed)
        assert math.isclose(
            empirical_mean(final), empirical_mean(values),
            rel_tol=1e-9, abs_tol=1e-6,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=4, max_size=40),
        cycles=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    def test_run_variance_monotone_rand(self, values, cycles, seed):
        result, _ = avg_run(values, "rand", cycles, seed)
        variances = result.variance_array("avg")
        scale = max(variances[0], 1.0)
        assert np.all(np.diff(variances) <= 1e-9 * scale)

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=4, max_size=40),
        seed=st.integers(0, 2**31),
    )
    def test_envelope_holds_across_run(self, values, seed):
        low, high = min(values), max(values)
        _, final = avg_run(values, "seq", 4, seed)
        margin = 1e-9 * max(abs(low), abs(high), 1.0)
        assert final.min() >= low - margin
        assert final.max() <= high + margin


class TestAggregateProperties:
    @given(x=finite_floats, y=finite_floats)
    def test_mean_symmetric(self, x, y):
        agg = MeanAggregate()
        assert agg.combine(x, y) == agg.combine(y, x)

    @given(x=finite_floats, y=finite_floats)
    def test_mean_between_inputs(self, x, y):
        combined = MeanAggregate().combine(x, y)
        assert min(x, y) <= combined <= max(x, y)

    @given(x=finite_floats, y=finite_floats)
    def test_max_is_one_of_inputs(self, x, y):
        assert MaxAggregate().combine(x, y) in (x, y)

    @given(x=finite_floats, y=finite_floats)
    def test_max_ge_min(self, x, y):
        assert MaxAggregate().combine(x, y) >= MinAggregate().combine(x, y)

    @given(x=finite_floats)
    def test_aggregates_idempotent(self, x):
        for agg in (MeanAggregate(), MaxAggregate(), MinAggregate()):
            assert agg.combine(x, x) == x

    @given(x=finite_floats, y=finite_floats, z=finite_floats)
    def test_max_associative(self, x, y, z):
        agg = MaxAggregate()
        assert agg.combine(agg.combine(x, y), z) == agg.combine(
            x, agg.combine(y, z)
        )


# small networks and budgets: each example is a whole engine run
adversary_values = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=8,
    max_size=32,
)


def adversary_run(values, kind, fraction, seed, value=0.0, cycles=3):
    scenario = Scenario(
        CompleteTopology(len(values)),
        np.asarray(values),
        adversary=AdversarySpec(kind=kind, fraction=fraction, value=value),
        seed=seed,
        backend="reference",
    )
    engine = GossipEngine(scenario)
    engine.run(cycles)
    return engine


class TestAdversaryInvariants:
    """The §3 invariants, restricted to honest nodes, under adversaries."""

    @settings(max_examples=15, deadline=None)
    @given(
        values=adversary_values,
        fraction=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**31),
    )
    def test_lying_conserves_all_mass(self, values, fraction, seed):
        """Byzantine reporting never touches state: the full §3.2 mass
        invariant holds over *all* nodes, lies notwithstanding."""
        engine = adversary_run(values, "lying", fraction, seed, value=1e9)
        total = float(np.asarray(values).sum())
        assert math.isclose(
            float(engine.alive_column().sum()), total,
            rel_tol=1e-9, abs_tol=1e-3,
        )

    @settings(max_examples=15, deadline=None)
    @given(
        values=adversary_values,
        fraction=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**31),
    )
    def test_partition_conserves_honest_mass(self, values, fraction, seed):
        """A targeted partition seals the boundary, so the mass
        invariant holds restricted to the honest block."""
        engine = adversary_run(values, "partition", fraction, seed)
        honest_total = float(np.asarray(values)[engine.honest_mask].sum())
        assert math.isclose(
            float(engine.honest_column().sum()), honest_total,
            rel_tol=1e-9, abs_tol=1e-3,
        )

    @settings(max_examples=15, deadline=None)
    @given(
        values=adversary_values,
        fraction=st.floats(0.0, 1.0),
        injected=st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        seed=st.integers(0, 2**31),
    )
    def test_inject_respects_extended_envelope(
        self, values, fraction, injected, seed
    ):
        """Injection breaks mass conservation by design, but the §3
        contraction envelope survives in extended form: every honest
        value stays inside [min, max] of the initial values plus the
        injected value — means of means cannot escape their inputs."""
        engine = adversary_run(
            values, "inject", fraction, seed, value=injected
        )
        honest = engine.honest_column()
        if len(honest) == 0:
            return
        low = min(min(values), injected)
        high = max(max(values), injected)
        margin = 1e-9 * max(abs(low), abs(high), 1.0)
        assert honest.min() >= low - margin
        assert honest.max() <= high + margin
