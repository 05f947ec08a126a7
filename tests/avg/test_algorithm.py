"""Tests for avg.algorithm — the instrumented AVG cycle runner."""

import numpy as np
import pytest

from repro.avg import (
    GetPairPerfectMatching,
    GetPairRand,
    GetPairSeq,
    ValueVector,
    run_avg,
)
from repro.errors import ConfigurationError
from repro.topology import CompleteTopology


@pytest.fixture
def topo():
    return CompleteTopology(200)


class TestRunBasics:
    def test_zero_cycles(self, topo):
        vec = ValueVector.uniform(200, seed=1)
        result = run_avg(vec, GetPairSeq(topo), 0, seed=2)
        assert result.cycles == []
        assert result.variances.tolist() == [result.initial_variance]

    def test_negative_cycles_rejected(self, topo):
        vec = ValueVector.uniform(200, seed=1)
        with pytest.raises(ConfigurationError):
            run_avg(vec, GetPairSeq(topo), -1)

    def test_size_mismatch_rejected(self, topo):
        vec = ValueVector.uniform(100, seed=1)
        with pytest.raises(ConfigurationError):
            run_avg(vec, GetPairSeq(topo), 1)

    def test_deterministic_given_seed(self, topo):
        a = ValueVector.uniform(200, seed=1)
        b = ValueVector.uniform(200, seed=1)
        run_avg(a, GetPairSeq(topo), 5, seed=9)
        run_avg(b, GetPairSeq(topo), 5, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_mutates_vector_in_place(self, topo):
        vec = ValueVector.uniform(200, seed=1)
        before = vec.snapshot()
        run_avg(vec, GetPairSeq(topo), 3, seed=2)
        assert not np.array_equal(before, vec.values)


class TestConservation:
    @pytest.mark.parametrize("selector_cls", [GetPairSeq, GetPairRand,
                                              GetPairPerfectMatching])
    def test_mean_conserved(self, topo, selector_cls):
        """ā_i ≡ ā_0 — the paper's 'no error introduced' invariant."""
        vec = ValueVector.gaussian(200, mean=5.0, seed=3)
        initial_mean = vec.mean
        run_avg(vec, selector_cls(topo), 10, seed=4)
        assert vec.mean == pytest.approx(initial_mean, abs=1e-12)

    def test_variance_never_increases(self, topo):
        vec = ValueVector.uniform(200, seed=5)
        result = run_avg(vec, GetPairSeq(topo), 15, seed=6)
        variances = result.variances
        assert np.all(np.diff(variances) <= 1e-15)

    def test_constant_vector_stays_constant(self, topo):
        vec = ValueVector.constant(200, 7.0)
        run_avg(vec, GetPairSeq(topo), 5, seed=7)
        assert np.allclose(vec.values, 7.0)


class TestCycleStats:
    def test_cycle_numbering(self, topo):
        vec = ValueVector.uniform(200, seed=1)
        result = run_avg(vec, GetPairSeq(topo), 4, seed=2)
        assert [c.cycle for c in result.cycles] == [1, 2, 3, 4]

    def test_variance_chaining(self, topo):
        """cycle i's variance_after equals cycle i+1's variance_before."""
        vec = ValueVector.uniform(200, seed=1)
        result = run_avg(vec, GetPairSeq(topo), 5, seed=2)
        for prev, nxt in zip(result.cycles, result.cycles[1:]):
            assert prev.variance_after == pytest.approx(nxt.variance_before)

    def test_reduction_ratio(self, topo):
        vec = ValueVector.uniform(200, seed=1)
        result = run_avg(vec, GetPairSeq(topo), 3, seed=2)
        stats = result.cycles[0]
        assert stats.reduction == pytest.approx(
            stats.variance_after / stats.variance_before
        )

    def test_reduction_nan_when_converged(self):
        topo = CompleteTopology(10)
        vec = ValueVector.constant(10, 1.0)
        result = run_avg(vec, GetPairSeq(topo), 1, seed=1)
        assert np.isnan(result.cycles[0].reduction)

    def test_mean_phi_is_two(self, topo):
        vec = ValueVector.uniform(200, seed=1)
        result = run_avg(vec, GetPairSeq(topo), 1, seed=2)
        assert result.cycles[0].mean_phi == pytest.approx(2.0)

    def test_overall_reduction(self, topo):
        vec = ValueVector.uniform(200, seed=1)
        result = run_avg(vec, GetPairSeq(topo), 5, seed=2)
        assert result.overall_reduction == pytest.approx(
            result.variances[-1] / result.variances[0]
        )

    def test_geometric_mean_reduction_matches_overall(self, topo):
        vec = ValueVector.uniform(200, seed=1)
        result = run_avg(vec, GetPairSeq(topo), 5, seed=2)
        geo = result.geometric_mean_reduction()
        assert geo**5 == pytest.approx(result.overall_reduction, rel=1e-9)

    def test_geometric_mean_reduction_ignores_converged_cycles(self):
        """Regression: a run that hits exact convergence mid-way used to
        report nan for the whole run (the 0.0 ratio survived the
        nan-filter and tripped the <= 0 guard). Converged-cycle ratios
        are dropped; the pre-convergence empirical rate remains."""
        from repro.avg import CycleStats, RunResult

        result = RunResult(initial_variance=4.0, initial_mean=1.0)
        result.cycles = [
            CycleStats(1, 4.0, 1.0, np.full(4, 2)),   # ratio 0.25
            CycleStats(2, 1.0, 0.25, np.full(4, 2)),  # ratio 0.25
            CycleStats(3, 0.25, 0.0, np.full(4, 2)),  # converged: ratio 0.0
            CycleStats(4, 0.0, 0.0, np.full(4, 2)),   # past it: ratio nan
        ]
        assert result.geometric_mean_reduction() == pytest.approx(0.25)

    def test_geometric_mean_reduction_nan_when_born_converged(self):
        """A run with no pre-convergence cycles still reports nan."""
        topo = CompleteTopology(10)
        vec = ValueVector.constant(10, 1.0)
        result = run_avg(vec, GetPairSeq(topo), 3, seed=1)
        assert np.isnan(result.geometric_mean_reduction())

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_backends_agree_bitwise(self, topo, backend):
        """``run_avg`` inherits the kernel's backend equivalence
        contract: explicit backends match `auto` bitwise."""
        auto_vec = ValueVector.uniform(200, seed=4)
        auto = run_avg(auto_vec, GetPairSeq(topo), 6, seed=5, track_s=True)
        other_vec = ValueVector.uniform(200, seed=4)
        other = run_avg(other_vec, GetPairSeq(topo), 6, seed=5, track_s=True,
                        backend=backend)
        assert np.array_equal(auto_vec.values, other_vec.values)
        assert [c.variance_after for c in auto.cycles] == [
            c.variance_after for c in other.cycles
        ]
        assert [c.s_mean for c in auto.cycles] == [
            c.s_mean for c in other.cycles
        ]


class TestTrackS:
    def test_s_mean_recorded(self, topo):
        vec = ValueVector.gaussian(200, seed=1)
        result = run_avg(vec, GetPairSeq(topo), 3, seed=2, track_s=True)
        assert all(c.s_mean is not None for c in result.cycles)

    def test_s_mean_absent_by_default(self, topo):
        vec = ValueVector.gaussian(200, seed=1)
        result = run_avg(vec, GetPairSeq(topo), 2, seed=2)
        assert all(c.s_mean is None for c in result.cycles)

    def test_theorem1_s_recursion_pm(self):
        """For PM, Theorem 1 is exact: E(s_{i+1}) = (1/4) E(s_i), and the
        s update is deterministic per pair, so the ratio holds exactly
        in every run."""
        topo = CompleteTopology(500)
        vec = ValueVector.gaussian(500, seed=3)
        result = run_avg(
            vec, GetPairPerfectMatching(topo), 3, seed=4, track_s=True
        )
        s0 = float(np.mean(ValueVector.gaussian(500, seed=3).values ** 2))
        assert result.cycles[0].s_mean == pytest.approx(s0 / 4, rel=1e-9)
        assert result.cycles[1].s_mean == pytest.approx(
            result.cycles[0].s_mean / 4, rel=1e-9
        )

    def test_theorem1_s_recursion_rand_statistically(self):
        """For RAND the s-mean ratio concentrates around 1/e."""
        topo = CompleteTopology(3000)
        vec = ValueVector.gaussian(3000, seed=5)
        result = run_avg(vec, GetPairRand(topo), 6, seed=6, track_s=True)
        s_means = [float(np.mean(vec.snapshot() ** 2))]  # placeholder
        ratios = []
        previous = None
        for stats in result.cycles:
            if previous is not None:
                ratios.append(stats.s_mean / previous)
            previous = stats.s_mean
        assert np.mean(ratios) == pytest.approx(1 / np.e, rel=0.1)
