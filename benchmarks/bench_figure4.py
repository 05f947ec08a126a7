"""Experiment F4 — Figure 4: network size estimation by anti-entropy
counting under churn.

The network size oscillates between mid−amp and mid+amp (paper: 90 000
to 110 000) with an extra `fluctuation` nodes joining AND leaving every
cycle (paper: 100 + 100). A new epoch starts every 30 cycles; converged
estimates are reported at each epoch end together with the min/max
range across reporting nodes.

Paper shape: the estimate curve tracks the actual size curve translated
by one epoch (estimates describe the state at each epoch's start), with
tight error bars.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import Table
from repro.core import SizeEstimationConfig, SizeEstimationExperiment
from repro.kernel import ChurnTrace

from _common import emit, scale


def compute_figure4():
    cfg = scale()
    config = SizeEstimationConfig(
        cycles=cfg.figure4_cycles,
        cycles_per_epoch=cfg.figure4_epoch,
        initial_size=cfg.figure4_mid,
        expected_leaders=1.0,
        seed=2004,
    )
    churn = ChurnTrace.diurnal(
        cfg.figure4_mid,
        cfg.figure4_cycles,
        period=cfg.figure4_cycles // 2,  # two day/night swings per run
        amplitude=cfg.figure4_amplitude,
        fluctuation=cfg.figure4_fluctuation,
    )
    experiment = SizeEstimationExperiment(config, churn=churn)
    experiment.run()
    return experiment


def render(experiment):
    cfg = scale()
    table = Table(
        headers=[
            "end cycle",
            "actual size @ epoch start",
            "size estimate",
            "est. min",
            "est. max",
            "rel. error",
        ],
        title=(
            "Figure 4: network size estimation by anti-entropy counting "
            f"(size oscillates {cfg.figure4_mid - cfg.figure4_amplitude}"
            f"-{cfg.figure4_mid + cfg.figure4_amplitude}, "
            f"fluctuation {cfg.figure4_fluctuation}+{cfg.figure4_fluctuation} "
            "nodes/cycle, epoch = 30 cycles)"
        ),
    )
    for report in experiment.reports:
        table.add_row(
            report.end_cycle,
            report.size_at_start,
            report.estimate_mean,
            report.estimate_min,
            report.estimate_max,
            report.relative_error,
        )
    return table.render()


def test_figure4(benchmark, capsys):
    experiment = benchmark.pedantic(compute_figure4, rounds=1, iterations=1)
    emit("figure4", render(experiment), capsys)
    reports = experiment.reports
    cfg = scale()
    assert len(reports) == cfg.figure4_cycles // cfg.figure4_epoch
    # estimates track the epoch-start size
    errors = [report.relative_error for report in reports]
    assert np.mean(errors) < 0.1
    # the estimate series actually sees the oscillation swing
    estimates = np.array([report.estimate_mean for report in reports])
    assert estimates.max() > cfg.figure4_mid * 1.03
    assert estimates.min() < cfg.figure4_mid * 0.97
    # estimates correlate with the size at epoch start (lag structure)
    starts = np.array([report.size_at_start for report in reports])
    assert np.corrcoef(estimates, starts)[0, 1] > 0.9
