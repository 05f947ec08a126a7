"""Tests for avg.matrix — the linear-algebra view of AVG."""

import numpy as np
import pytest

from repro.avg.matrix import (
    contraction_coefficient,
    cycle_matrix,
    elementary_matrix,
    is_doubly_stochastic,
    realized_reduction,
)
from repro.errors import ConfigurationError
from repro.kernel import GossipEngine, PairProtocolSpec, Scenario
from repro.kernel.pairs import pairs_seq
from repro.rng import make_rng
from repro.topology import CompleteTopology


class TestElementaryMatrix:
    def test_structure(self):
        matrix = elementary_matrix(3, 0, 2)
        expected = np.array([
            [0.5, 0.0, 0.5],
            [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5],
        ])
        assert np.allclose(matrix, expected)

    def test_matches_elementary_step(self):
        vector = np.array([1.0, 5.0, 9.0])
        result = elementary_matrix(3, 0, 1) @ vector
        assert np.allclose(result, [3.0, 3.0, 9.0])

    def test_idempotent(self):
        matrix = elementary_matrix(4, 1, 2)
        assert np.allclose(matrix @ matrix, matrix)

    def test_doubly_stochastic(self):
        assert is_doubly_stochastic(elementary_matrix(5, 0, 4))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            elementary_matrix(3, 0, 0)
        with pytest.raises(ConfigurationError):
            elementary_matrix(3, 0, 3)


class TestCycleMatrix:
    def test_order_of_application(self):
        """Later pairs act on the output of earlier pairs."""
        pairs = [(0, 1), (1, 2)]
        matrix = cycle_matrix(3, pairs)
        vector = np.array([0.0, 4.0, 8.0])
        # manual: step (0,1) -> [2,2,8]; step (1,2) -> [2,5,5]
        assert np.allclose(matrix @ vector, [2.0, 5.0, 5.0])

    def test_every_cycle_matrix_doubly_stochastic(self, rng):
        topo = CompleteTopology(12)
        for _ in range(5):
            pairs = [tuple(p) for p in pairs_seq(topo, rng).tolist()]
            assert is_doubly_stochastic(cycle_matrix(12, pairs))

    def test_matrix_agrees_with_algorithm(self):
        """The matrix product reproduces a one-cycle AVG run exactly
        for the same pair sequence (the engine's first draw from its
        seed)."""
        n = 10
        topo = CompleteTopology(n)
        pairs = [tuple(p) for p in pairs_seq(topo, make_rng(77)).tolist()]
        initial = make_rng(5).normal(0.0, 1.0, size=n)
        scenario = Scenario(topo, initial,
                            pair_protocol=PairProtocolSpec("seq"), seed=77)
        with GossipEngine(scenario) as engine:
            engine.run(1)
            algorithm_result = engine.alive_column("avg")
        matrix_result = cycle_matrix(n, pairs) @ initial
        assert np.allclose(algorithm_result, matrix_result)


class TestContraction:
    def test_identity_no_contraction(self):
        assert contraction_coefficient(np.eye(5)) == pytest.approx(1.0)

    def test_full_averaging_total_contraction(self):
        n = 6
        matrix = np.ones((n, n)) / n
        assert contraction_coefficient(matrix) == pytest.approx(0.0, abs=1e-12)

    def test_bounds_realized_reduction(self, rng):
        """λ² upper-bounds the realized per-cycle reduction for every
        input vector."""
        n = 14
        pairs = pairs_seq(CompleteTopology(n), rng)
        pairs = [tuple(p) for p in pairs.tolist()]
        matrix = cycle_matrix(n, pairs)
        bound = contraction_coefficient(matrix)
        for seed in range(5):
            vector = make_rng(seed).normal(0.0, 1.0, size=n)
            assert realized_reduction(matrix, vector) <= bound + 1e-9

    def test_realized_reduction_validation(self):
        with pytest.raises(ConfigurationError):
            realized_reduction(np.eye(3), np.ones(3))  # zero variance
        with pytest.raises(ConfigurationError):
            realized_reduction(np.eye(3), np.ones(4))

    def test_average_contraction_tracks_theory(self, rng):
        """Averaged over many cycles, the realized reduction on random
        vectors sits near E(2^{-φ}) = 1/(2√e) (Theorem 1) — the spectral
        view and the probabilistic view agree."""
        n = 60
        topo = CompleteTopology(n)
        reductions = []
        for seed in range(30):
            pairs = [tuple(p) for p in pairs_seq(topo, rng).tolist()]
            matrix = cycle_matrix(n, pairs)
            vector = make_rng(seed).normal(0.0, 1.0, size=n)
            reductions.append(realized_reduction(matrix, vector))
        assert np.mean(reductions) == pytest.approx(0.3033, rel=0.15)


class TestDoublyStochasticCheck:
    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError):
            is_doubly_stochastic(np.ones((2, 3)))

    def test_rejects_negative_entries(self):
        matrix = np.array([[1.5, -0.5], [-0.5, 1.5]])
        assert not is_doubly_stochastic(matrix)

    def test_rejects_bad_row_sums(self):
        assert not is_doubly_stochastic(np.full((2, 2), 0.4))
