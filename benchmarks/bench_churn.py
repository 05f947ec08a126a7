"""Experiment C1 — kernel-hosted churn at paper scale.

Times the Figure 4 workload — size estimation with epoch restarts over
a diurnal churn trace (size swings ±10 %, 0.1 % of nodes joining
AND leaving every cycle) — at N = 100 000 on the vectorized backend.
Before the kernel hosted churn, this experiment rebuilt Python node
objects every epoch and could not reach paper scale; now churn is
alive-mask mutation with row recycling and the whole 300-cycle run
finishes in seconds.

The benchmark also replays a scaled-down configuration on *both*
backends and asserts the trajectories agree bitwise — the backend
equivalence contract extends to joins, crashes and epoch restarts
because all churn randomness is drawn by the engine, never by a
backend.

Acceptance target: the N = 100 000 vectorized run completes in < 30 s
with mean relative estimation error < 5 %. Results land in
``benchmarks/out/BENCH_churn.json`` (paper-scale runs also refresh the
git-tracked copy at the repo root). A smoke configuration
(``--n 50000 --cycles 90``) runs in about a second for CI.

Run as a script: ``python benchmarks/bench_churn.py [--n N]``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import Table
from repro.core import SizeEstimationConfig, SizeEstimationExperiment
from repro.kernel import ChurnTrace

from _common import emit, emit_json

N = 100_000
CYCLES = 300
EPOCH = 30
SEED = 2004
SECONDS_CEILING = 30.0  # acceptance target at N = 100 000
EQUIVALENCE_N = 600  # both-backend replay size


def figure4_experiment(n, *, cycles=CYCLES, epoch=EPOCH, backend="vectorized",
                       seed=SEED):
    """The Figure 4 workload: a diurnal ±10 % wave with 0.1 %
    fluctuation."""
    config = SizeEstimationConfig(
        cycles=cycles,
        cycles_per_epoch=epoch,
        initial_size=n,
        expected_leaders=1.0,
        seed=seed,
    )
    churn = ChurnTrace.diurnal(
        n, cycles, period=max(cycles // 2, 2), amplitude=n // 10,
        fluctuation=max(n // 1000, 1),
    )
    return SizeEstimationExperiment(config, churn=churn, backend=backend)


def equivalence_check(n=EQUIVALENCE_N, cycles=90):
    """Replay one scaled-down churn run per backend; bitwise compare."""
    runs = {}
    for backend in ("reference", "vectorized"):
        experiment = figure4_experiment(
            n, cycles=cycles, backend=backend, seed=SEED
        )
        experiment.run()
        runs[backend] = experiment
    ref, vec = runs["reference"], runs["vectorized"]
    estimates_equal = [
        r.estimate_mean for r in ref.reports
    ] == [r.estimate_mean for r in vec.reports]
    return bool(estimates_equal and ref.size_trace == vec.size_trace)


def compute_churn(n=N, cycles=CYCLES):
    experiment = figure4_experiment(n, cycles=cycles)
    start = time.perf_counter()
    reports = experiment.run()
    elapsed = time.perf_counter() - start
    errors = [report.relative_error for report in reports]
    return {
        "n": n,
        "cycles": cycles,
        "cycles_per_epoch": EPOCH,
        "backend": experiment.backend_name,
        "seconds": elapsed,
        "epochs_reported": len(reports),
        "mean_relative_error": float(np.mean(errors)) if errors else None,
        "max_relative_error": float(np.max(errors)) if errors else None,
        "final_size": experiment.current_size,
        "bitwise_equal_backends": equivalence_check(),
    }


def render(series):
    table = Table(
        headers=["metric", "value"],
        title=(
            f"C1: kernel-hosted churn — Figure 4 at N={series['n']}, "
            f"{series['cycles']} cycles ({series['backend']} backend)"
        ),
    )
    table.add_row("wall-clock seconds", series["seconds"])
    table.add_row("epochs reported", series["epochs_reported"])
    table.add_row("mean relative error", series["mean_relative_error"])
    table.add_row("max relative error", series["max_relative_error"])
    table.add_row("bitwise-equal backends", series["bitwise_equal_backends"])
    return table.render()


def check(series):
    assert series["bitwise_equal_backends"], (
        "reference and vectorized backends diverged under churn"
    )
    expected_epochs = series["cycles"] // series["cycles_per_epoch"]
    assert expected_epochs > 0, (
        f"--cycles {series['cycles']} completes no "
        f"{series['cycles_per_epoch']}-cycle epoch; nothing to measure"
    )
    assert series["epochs_reported"] == expected_epochs
    assert series["mean_relative_error"] < 0.05, (
        f"mean relative error {series['mean_relative_error']:.3f} "
        f"exceeds the 5% acceptance bound"
    )
    # the wall-clock ceiling is a paper-scale claim; smoke sizes only
    # check correctness
    if series["n"] >= 100_000:
        assert series["seconds"] < SECONDS_CEILING, (
            f"N={series['n']} churn run took {series['seconds']:.1f}s, "
            f"ceiling is {SECONDS_CEILING}s"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--cycles", type=int, default=CYCLES)
    args = parser.parse_args(argv)
    series = compute_churn(args.n, args.cycles)
    emit("churn", render(series))
    # only acceptance-scale runs refresh the git-tracked archive;
    # smoke sizes stay in benchmarks/out/
    emit_json("churn", series, archive=args.n >= N)
    check(series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
