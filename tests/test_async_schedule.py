"""Ablations A3 (getWaitingTime, §3.3.2) and A5 (clock drift, relaxing
§2) on the asynchronous schedule of :mod:`tests.async_schedule`, and
the Figure 1 protocol's guarantees under every timing that schedule
draws.

The small sizes run in tier-1; the paper-scale sizes are
``slow_statistical`` parametrizations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.avg import RATE_RAND, RATE_SEQ
from repro.core import MaxAggregate, MeanAggregate, MinAggregate
from repro.kernel.backends import make_backend
from repro.rng import spawn_streams

from .async_schedule import activations, convergence_rate, exchanges, run

CYCLES = 10
PAPER_SCALE = pytest.mark.slow_statistical
SKEWS = (0.0, 1e-4, 1e-2, 0.3)
#: both waiting disciplines under every clock skew of ablation A5
TIMINGS = [
    pytest.param(waiting, skew, id=f"{waiting}-skew{skew:g}")
    for waiting in ("constant", "exponential")
    for skew in SKEWS
]
LOSS_RATES = (0.05, 0.1, 0.2, 0.4)


def population(n=200):
    return np.random.default_rng(3).normal(10.0, 4.0, n)


def mean_rate(n, runs, seed, **schedule):
    rates = []
    for rng in spawn_streams(seed, runs):
        values = rng.normal(0.0, 1.0, n)
        variances, _ = run(values, CYCLES, seed=rng, **schedule)
        rates.append(convergence_rate(variances))
    return float(np.mean(rates))


@pytest.mark.parametrize(
    "n, runs", [(800, 4), pytest.param(2000, 8, marks=PAPER_SCALE)]
)
def test_waiting_time_ablation(n, runs):
    """A3: constant waiting is the GETPAIR_SEQ discipline (1/(2√e)),
    exponential waiting the GETPAIR_RAND one (1/e), and constant
    converges faster, as §3.3.3 predicts."""
    constant = mean_rate(n, runs, seed=600, waiting="constant")
    exponential = mean_rate(n, runs, seed=601, waiting="exponential")
    assert abs(constant - RATE_SEQ) / RATE_SEQ < 0.12
    assert abs(exponential - RATE_RAND) / RATE_RAND < 0.12
    assert constant < exponential


@pytest.mark.parametrize(
    "n, runs", [(600, 3), pytest.param(1500, 6, marks=PAPER_SCALE)]
)
def test_clock_drift_ablation(n, runs):
    """A5: realistic skews are indistinguishable from the drift-free
    model, and even ±30 % keeps the rate well below RAND's 1/e."""
    rates = {
        skew: mean_rate(n, runs, seed=800 + index, skew=skew)
        for index, skew in enumerate(SKEWS)
    }
    assert abs(rates[0.0] - RATE_SEQ) / RATE_SEQ < 0.12
    for skew in (1e-4, 1e-2):
        assert abs(rates[skew] - rates[0.0]) < 0.03
    assert rates[0.3] < 0.37


class TestSchedule:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), cycles=st.integers(1, 6),
           waiting=st.sampled_from(["constant", "exponential"]),
           skew=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**31))
    def test_activations_in_time_order(self, n, cycles, waiting, skew, seed):
        times, nodes = activations(
            n, cycles, waiting, skew, np.random.default_rng(seed)
        )
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0 and times.max() < cycles
        if waiting == "constant" and skew == 0.0:
            # every node initiates exactly once per cycle: GETPAIR_SEQ
            assert np.all(np.bincount(nodes, minlength=n) == cycles)

    @pytest.mark.parametrize("waiting, skew", TIMINGS)
    def test_activation_counts(self, waiting, skew):
        """Each node initiates about once per cycle: within one of
        ``cycles · rate_i`` under constant waiting; a Poisson count
        mixed over the rates under exponential waiting, whose index of
        dispersion is ``1 + cycles · skew² / 3``."""
        n, cycles = 300, 20
        _, nodes = activations(
            n, cycles, waiting, skew, np.random.default_rng(4)
        )
        counts = np.bincount(nodes, minlength=n)
        if waiting == "constant":
            assert np.all(np.abs(counts - cycles) <= cycles * skew + 1)
        else:
            assert counts.mean() == pytest.approx(cycles, rel=0.05)
            dispersion = counts.var() / counts.mean()
            assert dispersion == pytest.approx(
                1.0 + cycles * skew**2 / 3, abs=0.3
            )

    @pytest.mark.parametrize("skew", SKEWS)
    def test_constant_waiting_is_periodic(self, skew):
        """Constant waiting: a node wakes once per local ∆t — a fixed
        global period ``1 / rate_i`` from a uniform phase, so nodes are
        not synchronised."""
        n = 300
        times, nodes = activations(
            n, CYCLES, "constant", skew, np.random.default_rng(5)
        )
        order = np.argsort(nodes, kind="stable")
        per_node = np.split(
            times[order], np.cumsum(np.bincount(nodes, minlength=n))[:-1]
        )
        first = np.array([node_times[0] for node_times in per_node])
        assert np.all(first < 1.0 / (1.0 - skew))
        assert first.std() > 0.2  # uniform on [0, 1/rate): std ≈ 0.29
        for node_times in per_node:
            gaps = np.diff(node_times)
            assert np.allclose(gaps, gaps[0], rtol=1e-9)
            assert 1.0 / (1.0 + skew) - 1e-9 <= gaps[0]
            assert gaps[0] <= 1.0 / (1.0 - skew) + 1e-9


@pytest.mark.parametrize("waiting, skew", TIMINGS)
class TestAsynchronousProtocol:
    """Figure 1 with drifting clocks and either waiting discipline
    still averages, floods extremes and replays deterministically."""

    def test_lossless_run_conserves_mass(self, waiting, skew):
        values = population()
        variances, final = run(values, CYCLES, waiting=waiting, skew=skew,
                               seed=4)
        assert final.mean() == pytest.approx(values.mean(), abs=1e-9)
        assert variances[-1] < variances[0] * 1e-3

    def test_every_node_learns_the_average(self, waiting, skew):
        # 40 cycles at RAND's 1/e: the spread shrinks by e^-20
        values = population()
        _, final = run(values, 40, waiting=waiting, skew=skew, seed=5)
        assert np.abs(final - values.mean()).max() < 1e-6

    @pytest.mark.parametrize(
        "function, extreme",
        [(MaxAggregate(), np.max), (MinAggregate(), np.min)],
        ids=["max", "min"],
    )
    def test_extremes_flood(self, waiting, skew, function, extreme):
        values = population()
        _, final = run(values, 15, waiting=waiting, skew=skew,
                       function=function, seed=6)
        assert np.all(final == extreme(values))

    def test_deterministic_given_seed(self, waiting, skew):
        values = population(100)
        first = run(values, 5, waiting=waiting, skew=skew, loss=0.1, seed=7)
        second = run(values, 5, waiting=waiting, skew=skew, loss=0.1, seed=7)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_lossless_run_is_the_time_ordered_exchange_list(
        self, waiting, skew, backend
    ):
        """§2's zero-latency identity: a lossless asynchronous run is
        its exchange list, in time order, applied by the kernel's
        two-sided backends — bitwise."""
        values = population()
        _, final = run(values, CYCLES, waiting=waiting, skew=skew, seed=8)
        _, steps_i, steps_j = exchanges(
            len(values), CYCLES, waiting, skew, np.random.default_rng(8)
        )
        matrix = values.reshape(-1, 1).copy()
        make_backend(backend).apply_exchanges(
            matrix, (MeanAggregate(),), steps_i, steps_j
        )
        assert np.array_equal(matrix[:, 0], final)


@pytest.mark.parametrize("waiting", ["constant", "exponential"])
class TestMessageLoss:
    """A lost request cancels the exchange; a lost reply leaves it half
    done — the partner updated, the initiator did not (§1.4)."""

    @pytest.mark.parametrize("loss", LOSS_RATES)
    def test_loss_keeps_convergence_direction(self, waiting, loss):
        values = population()
        variances, _ = run(values, CYCLES, waiting=waiting, loss=loss,
                           seed=9)
        assert variances[-1] < variances[0] * 0.1

    @pytest.mark.parametrize("loss", LOSS_RATES)
    def test_lost_replies_move_mass(self, waiting, loss):
        values = population()
        _, final = run(values, 20, waiting=waiting, loss=loss, seed=5)
        assert abs(final.mean() - values.mean()) > 1e-9

    def test_total_loss_changes_nothing(self, waiting):
        values = population()
        variances, final = run(values, CYCLES, waiting=waiting, loss=1.0,
                               seed=10)
        assert np.array_equal(final, values)
        assert np.all(variances == variances[0])
