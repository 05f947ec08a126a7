"""Algorithm AVG (Figure 2) run as a pair-mode ``Scenario``.

The kernel's :class:`~repro.kernel.KernelRunResult` carries what the
paper's figures plot: the variance trajectory, every cycle's φ counts
and, with ``track_s``, the means of Theorem 1's ``s`` vector. The
convergence helpers of :mod:`repro.avg` read rates off the trajectory.
"""

import numpy as np
import pytest

from repro.avg import (
    empirical_mean,
    empirical_reduction_rates,
    geometric_mean_reduction,
)
from repro.errors import ConfigurationError
from repro.kernel import GossipEngine, PairProtocolSpec, Scenario
from repro.rng import make_rng
from repro.topology import CompleteTopology


@pytest.fixture
def topo():
    return CompleteTopology(200)


def uniform(n, seed):
    return make_rng(seed).uniform(0.0, 1.0, size=n)


def avg_run(topology, values, cycles, seed, *, selector="seq",
            track_s=False, backend="auto"):
    """One AVG run: its kernel result and the final node values."""
    scenario = Scenario(
        topology,
        values,
        pair_protocol=PairProtocolSpec(selector, track_s=track_s),
        cycles=cycles,
        seed=seed,
        backend=backend,
    )
    with GossipEngine(scenario) as engine:
        return engine.run(), engine.alive_column("avg")


class TestRunBasics:
    def test_zero_cycles(self, topo):
        values = uniform(200, 1)
        result, final = avg_run(topo, values, 0, 2)
        assert result.phi_counts == []
        assert result.variance_array("avg").tolist() == [
            float(values.var(ddof=1))
        ]
        assert np.array_equal(final, values)

    def test_size_mismatch_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            Scenario(topo, uniform(100, 1),
                     pair_protocol=PairProtocolSpec("seq"))

    def test_deterministic_given_seed(self, topo):
        _, a = avg_run(topo, uniform(200, 1), 5, 9)
        _, b = avg_run(topo, uniform(200, 1), 5, 9)
        assert np.array_equal(a, b)


class TestConservation:
    @pytest.mark.parametrize("selector", ["seq", "rand", "pm"])
    def test_mean_conserved(self, topo, selector):
        """ā_i ≡ ā_0 — the paper's 'no error introduced' invariant."""
        values = make_rng(3).normal(5.0, 1.0, size=200)
        _, final = avg_run(topo, values, 10, 4, selector=selector)
        assert empirical_mean(final) == pytest.approx(
            empirical_mean(values), abs=1e-12
        )

    def test_variance_never_increases(self, topo):
        result, _ = avg_run(topo, uniform(200, 5), 15, 6)
        assert np.all(np.diff(result.variance_array("avg")) <= 1e-15)

    def test_constant_vector_stays_constant(self, topo):
        _, final = avg_run(topo, np.full(200, 7.0), 5, 7)
        assert np.allclose(final, 7.0)


class TestTrajectory:
    def test_reduction_nan_when_converged(self):
        result, _ = avg_run(CompleteTopology(10), np.ones(10), 1, 1)
        reductions = empirical_reduction_rates(result.variance_array("avg"))
        assert np.isnan(reductions[0])

    def test_mean_phi_is_two(self, topo):
        result, _ = avg_run(topo, uniform(200, 1), 1, 2)
        assert result.phi_counts[0].mean() == pytest.approx(2.0)

    def test_geometric_mean_reduction_matches_overall(self, topo):
        result, _ = avg_run(topo, uniform(200, 1), 5, 2)
        variances = result.variance_array("avg")
        geo = geometric_mean_reduction(variances)
        assert geo**5 == pytest.approx(
            variances[-1] / variances[0], rel=1e-9
        )

    def test_geometric_mean_reduction_nan_when_born_converged(self):
        """A run with no pre-convergence cycles reports nan."""
        result, _ = avg_run(CompleteTopology(10), np.ones(10), 3, 1)
        assert np.isnan(geometric_mean_reduction(result.variance_array("avg")))

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_backends_agree_bitwise(self, topo, backend):
        """Explicit backends match ``auto`` bitwise."""
        auto, auto_final = avg_run(topo, uniform(200, 4), 6, 5, track_s=True)
        other, other_final = avg_run(topo, uniform(200, 4), 6, 5,
                                     track_s=True, backend=backend)
        assert np.array_equal(auto_final, other_final)
        for name in ("avg", "s"):
            assert np.array_equal(auto.variance_array(name),
                                  other.variance_array(name))
            assert np.array_equal(auto.mean_array(name),
                                  other.mean_array(name))


class TestTrackS:
    def test_s_mean_recorded(self, topo):
        result, _ = avg_run(topo, make_rng(1).normal(size=200), 3, 2,
                            track_s=True)
        assert len(result.mean_array("s")) == 4

    def test_s_mean_absent_by_default(self, topo):
        result, _ = avg_run(topo, make_rng(1).normal(size=200), 2, 2)
        assert result.instance_names == ("avg",)

    def test_theorem1_s_recursion_pm(self):
        """For PM, Theorem 1 is exact: E(s_{i+1}) = (1/4) E(s_i), and the
        s update is deterministic per pair, so the ratio holds exactly
        in every run."""
        values = make_rng(3).normal(size=500)
        result, _ = avg_run(CompleteTopology(500), values, 3, 4,
                            selector="pm", track_s=True)
        s_means = result.mean_array("s")
        assert s_means[0] == pytest.approx(np.mean(values**2), rel=1e-12)
        assert s_means[1] == pytest.approx(s_means[0] / 4, rel=1e-9)
        assert s_means[2] == pytest.approx(s_means[1] / 4, rel=1e-9)

    def test_theorem1_s_recursion_rand_statistically(self):
        """For RAND the s-mean ratio concentrates around 1/e."""
        result, _ = avg_run(CompleteTopology(3000),
                            make_rng(5).normal(size=3000), 6, 6,
                            selector="rand", track_s=True)
        s_means = result.mean_array("s")[1:]
        assert np.mean(s_means[1:] / s_means[:-1]) == pytest.approx(
            1 / np.e, rel=0.1
        )
