"""Acceptance bands for robust size estimation under adversaries.

The headline robustness claim, at test scale: with a fraction ``f`` of
lying nodes the reported COUNT column is a contaminated sample —
``(1-f)`` honest reports converged to ``1/n`` plus ``f`` copies of the
lie — so the *median* (and the 25 %-trimmed mean, for ``f`` below its
breakdown point) recover the true size while the plain mean lands on
the analytically predictable contaminated value. Every test replicates
over fixed seeds and asserts CI bands, never single-run tolerances.
"""

import numpy as np
import pytest

from repro.kernel import (
    AdversarySpec,
    ChurnTrace,
    EpochSpec,
    GossipEngine,
    MultiAggregateSpec,
    min_size_estimate,
    robust_reduce,
    size_from_count,
)
from repro.topology import CompleteTopology

from .helpers import (
    assert_relative_error_below,
    assert_within_ci,
)

N = 600
CYCLES = 25
LIE = 100.0
SEEDS = (11, 12, 13, 14, 15)


def lying_run_reports(n, fraction, seed, cycles=CYCLES, value=LIE):
    """Reported COUNT column after a lying-adversary counting run."""
    spec = MultiAggregateSpec.counting(n)
    scenario = spec.scenario(
        CompleteTopology(n),
        adversary=AdversarySpec(kind="lying", fraction=fraction, value=value),
        seed=seed,
    )
    engine = GossipEngine(scenario)
    try:
        engine.run(cycles)
        return engine.reported_column("count")
    finally:
        engine.close()


def size_estimates(reports, method, n):
    return size_from_count(robust_reduce(reports, method), cap=100.0 * n)


class TestLyingContamination:
    """Fast tier-1 sanity: the robust/plain contrast at 10–20 % liars."""

    @pytest.mark.parametrize("fraction", [0.1, 0.2])
    def test_median_and_trimmed_recover_size(self, fraction):
        for method in ("median", "trimmed"):
            estimates = [
                size_estimates(
                    lying_run_reports(N, fraction, seed), method, N
                )
                for seed in SEEDS
            ]
            assert_relative_error_below(
                estimates, N, 0.05, label=f"{method} @ {fraction:.0%}"
            )

    @pytest.mark.parametrize("fraction", [0.1, 0.2])
    def test_plain_mean_diverges(self, fraction):
        estimates = [
            size_estimates(lying_run_reports(N, fraction, seed), "mean", N)
            for seed in SEEDS
        ]
        # the contaminated mean is dominated by the lie: the implied
        # size collapses to ~1/(f * LIE), nowhere near n
        assert max(estimates) < 0.01 * N


@pytest.mark.slow_statistical
class TestContaminatedMeanBand:
    """The plain mean fails *predictably*: reported mean ≈
    (1-f)/n + f·LIE, a pure two-point mixture once converged."""

    @pytest.mark.parametrize("fraction", [0.05, 0.1, 0.2])
    def test_reported_mean_matches_mixture(self, fraction):
        means = []
        liar_counts = []
        for seed in SEEDS:
            reports = lying_run_reports(N, fraction, seed, cycles=40)
            means.append(float(reports.mean()))
            liar_counts.append(int((reports == LIE).sum()))
        liars = round(fraction * N)
        assert liar_counts == [liars] * len(SEEDS)
        predicted = (N - liars) / N / N + liars / N * LIE
        assert_within_ci(
            means,
            predicted,
            min_margin=1e-3 * predicted,
            label=f"reported mean @ {fraction:.0%}",
        )


@pytest.mark.slow_statistical
class TestBreakdownPoints:
    """Trimmed mean at its design point and beyond."""

    def test_trimmed_survives_at_design_fraction(self):
        # 25 % trim absorbs f = 0.2 one-sided contamination
        estimates = [
            size_estimates(lying_run_reports(N, 0.2, seed), "trimmed", N)
            for seed in SEEDS
        ]
        assert_relative_error_below(estimates, N, 0.02, label="trimmed @ 20%")

    def test_trimmed_breaks_past_design_fraction(self):
        # f = 0.3 > trim = 0.25: survivors of the one-sided trim still
        # contain lies and the estimate collapses like the mean's
        estimates = [
            size_estimates(lying_run_reports(N, 0.3, seed), "trimmed", N)
            for seed in SEEDS
        ]
        assert max(estimates) < 0.5 * N

    def test_median_survives_past_trim_breakdown(self):
        estimates = [
            size_estimates(lying_run_reports(N, 0.3, seed), "median", N)
            for seed in SEEDS
        ]
        assert_relative_error_below(estimates, N, 0.05, label="median @ 30%")


@pytest.mark.slow_statistical
class TestChurnBand:
    """Counting under 1 %/cycle churn with epoch restarts: the epoch's
    closing estimate tracks the network size one epoch earlier (the
    Figure 4 lag), within a band set by the churn itself."""

    def test_epoch_estimate_tracks_lagged_size(self):
        cycles_per_epoch = 25
        errors = []
        for seed in SEEDS:
            n = 500
            spec = MultiAggregateSpec.counting(n)

            def reseed(context):
                # lowest participant slot is the epoch's leader
                rows = np.zeros(len(context.participants), dtype=np.float64)
                rows[0] = 1.0
                return rows

            per_cycle = max(1, round(0.01 * n))
            scenario = spec.scenario(
                CompleteTopology(n),
                churn=ChurnTrace.constant(
                    2 * cycles_per_epoch, per_cycle, per_cycle
                ),
                epochs=EpochSpec(
                    cycles_per_epoch=cycles_per_epoch, reseed=reseed
                ),
                seed=seed,
            )
            engine = GossipEngine(scenario)
            try:
                result = engine.run(2 * cycles_per_epoch)
                truth = result.alive_counts[cycles_per_epoch]
                estimate = size_from_count(
                    robust_reduce(engine.reported_column("count"), "median"),
                    cap=100.0 * n,
                )
            finally:
                engine.close()
            errors.append(abs(estimate - truth) / truth)
        assert float(np.mean(errors)) < 0.1, errors


@pytest.mark.slow_statistical
class TestExtremeValueBand:
    """The §4 extreme-value size bundle: N̂ = (k-1)/Σ minima is
    unbiased with relative sd ≈ 1/√(k-2); the replicated mean must sit
    inside that predicted band."""

    def test_min_estimate_within_predicted_band(self):
        n, instances = 500, 48
        estimates = []
        for seed in SEEDS:
            spec = MultiAggregateSpec.extrema(
                n, instances=instances, kind="min", seed=seed
            )
            engine = GossipEngine(
                spec.scenario(CompleteTopology(n), seed=seed)
            )
            try:
                engine.run(CYCLES)
                minima = [
                    float(engine.reported_column(name).mean())
                    for name in spec.aggregates
                ]
            finally:
                engine.close()
            estimates.append(min_size_estimate(minima))
        relative_sd = 1.0 / np.sqrt(instances - 2)
        assert_within_ci(
            estimates,
            n,
            # the analytic per-replication spread, shrunk by √runs
            min_margin=2.58 * n * relative_sd / np.sqrt(len(SEEDS)),
            label="extreme-value size estimate",
        )
