"""Experiment S1 — the unified-kernel scale benchmark.

Times the two kernel execution backends on the *same* scenario — the
monitoring-suite workload: five concurrent aggregation instances
(mean, second moment, max, min, §4 counting) piggybacked on one
GETPAIR_SEQ exchange stream — at paper scale (N = 100 000 by default).
Both backends consume identical RNG draws and the vectorized backend
preserves per-node exchange order, so the runs produce bitwise-equal
value matrices; the benchmark asserts that equality alongside the
wall-clock comparison.

Acceptance target: the vectorized (structure-of-arrays) backend is
≥ 5× faster than the reference (sequential list loop) backend at
N = 100 000. A smoke configuration (``--n 10000``) runs in seconds for
CI; results land in ``benchmarks/out/BENCH_scale.json`` via
:func:`_common.emit_json` (paper-scale runs also refresh the
git-tracked ``BENCH_scale.json`` at the repo root).

Run as a script: ``python benchmarks/bench_scale.py [--n N]``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import Table
from repro.core import (
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    MultiAggregateSpec,
    moment_values,
)
from repro.kernel import GossipEngine
from repro.rng import make_rng
from repro.topology import CompleteTopology

from _common import emit, emit_json

# the acceptance claim is at paper scale, and a full two-backend run
# finishes in seconds, so 100k is the default; CI's smoke job passes a
# smaller --n explicitly
N = 100_000
CYCLES = 10
SEED = 17
SPEEDUP_FLOOR = 5.0  # acceptance target at N = 100 000


def service_scenario(n, backend, *, seed=SEED, cycles=CYCLES, topology=None):
    """The monitoring-suite workload as a kernel scenario: all five
    standard instances in one pass. ``topology`` defaults to the
    complete graph; ``bench_sparse.py`` reuses the same workload over
    the sparse overlay families."""
    values = make_rng(seed).normal(10.0, 4.0, n)
    indicator = np.zeros(n)
    indicator[int(make_rng(seed + 1).integers(0, n))] = 1.0
    spec = MultiAggregateSpec.build(
        {
            "mean": MeanAggregate(),
            "second_moment": MeanAggregate(),
            "maximum": MaxAggregate(),
            "minimum": MinAggregate(),
            "count": MeanAggregate(),
        },
        initial={
            "second_moment": moment_values(values, 2),
            "count": indicator,
        },
    )
    if topology is None:
        topology = CompleteTopology(n)
    return spec.scenario(
        topology, values, seed=seed, cycles=cycles, backend=backend
    )


def timed_run(n, backend, *, cycles=CYCLES):
    """Wall-clock one backend over the scenario; returns (seconds,
    final value matrix, final mean-instance variance)."""
    engine = GossipEngine(service_scenario(n, backend, cycles=cycles))
    start = time.perf_counter()
    result = engine.run(cycles, record="end")
    elapsed = time.perf_counter() - start
    return elapsed, engine.matrix, float(result.variance_array("mean")[-1])


def compute_scale(n=N, cycles=CYCLES):
    ref_seconds, ref_matrix, ref_variance = timed_run(n, "reference", cycles=cycles)
    vec_seconds, vec_matrix, vec_variance = timed_run(n, "vectorized", cycles=cycles)
    return {
        "n": n,
        "cycles": cycles,
        "aggregates": 5,
        "reference_seconds": ref_seconds,
        "vectorized_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "bitwise_equal": bool(np.array_equal(ref_matrix, vec_matrix)),
        "reference_final_variance": ref_variance,
        "vectorized_final_variance": vec_variance,
    }


def render(series):
    table = Table(
        headers=["backend", "seconds", "final σ² (mean)"],
        title=(
            f"S1: kernel backend wall-clock, N={series['n']}, "
            f"{series['cycles']} cycles, {series['aggregates']} concurrent "
            f"aggregates (speedup {series['speedup']:.1f}x, bitwise equal: "
            f"{series['bitwise_equal']})"
        ),
    )
    table.add_row("reference", series["reference_seconds"],
                  series["reference_final_variance"])
    table.add_row("vectorized", series["vectorized_seconds"],
                  series["vectorized_final_variance"])
    return table.render()


def check(series):
    assert series["bitwise_equal"], (
        "vectorized backend diverged from the reference backend"
    )
    # the 5x acceptance floor applies at paper scale; the CI smoke size
    # gets a looser bound, and sub-5k runs only check correctness
    # (timings are sub-millisecond there and pure noise)
    if series["n"] >= 100_000:
        floor = SPEEDUP_FLOOR
    elif series["n"] >= 5_000:
        floor = 1.5
    else:
        return
    assert series["speedup"] >= floor, (
        f"speedup {series['speedup']:.2f}x below the {floor}x floor "
        f"at N={series['n']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--cycles", type=int, default=CYCLES)
    args = parser.parse_args(argv)
    series = compute_scale(args.n, args.cycles)
    emit("scale", render(series))
    # only acceptance-scale runs refresh the git-tracked archive;
    # smoke sizes stay in benchmarks/out/
    emit_json("scale", series, archive=args.n >= N)
    check(series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
