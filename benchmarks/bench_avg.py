"""Experiment A1 — kernel-hosted AVG pair selectors at paper scale.

Times algorithm AVG (Figure 2 / Figure 3's measurement loop) for the
GETPAIR_PM, GETPAIR_RAND and GETPAIR_SEQ selectors at N = 100 000 on
both kernel backends. Before the pair-mode kernel refactor only SEQ ran
on the kernel; PM/RAND/PMRAND lived in a private pure-Python loop, so
Figure 3 could not be regenerated at the same scale as Figure 4. Now
every selector's pair sequence is engine-materialized and the
vectorized backend applies each cycle's N elementary midpoint steps as
order-preserving conflict-free batches (PM's matching halves skip the
segmentation scan entirely; RAND/SEQ go through the chunked greedy
segmentation).

Each selector runs the same seeded protocol workload on *both*
backends (end-state recording, φ tracking off — the timing measures
protocol execution, not instrumentation). The benchmark asserts the
final states agree bitwise, checks the empirical rate — the telescoped
per-cycle geometric mean (σ²_T/σ²₀)^(1/T) — against §3.3 theory (PM
1/4, RAND 1/e, SEQ 1/(2√e)), and archives per-selector timings plus
the aggregate vectorized-over-reference speedup. Acceptance target at
N = 100 000: speedup ≥ 5×. Results land in
``benchmarks/out/BENCH_avg.json`` (paper-scale runs also refresh the
git-tracked copy at the repo root). A smoke configuration
(``--n 20000``) runs in seconds for CI.

Run as a script: ``python benchmarks/bench_avg.py [--n N]``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import Table
from repro.avg import RATE_PM, RATE_RAND, RATE_SEQ
from repro.kernel import GossipEngine, PairProtocolSpec, Scenario
from repro.topology import CompleteTopology

from _common import emit, emit_json

N = 100_000
CYCLES = 15
SEED = 3304
SPEEDUP_FLOOR = 5.0  # acceptance target at N = 100 000

SELECTORS = {"pm": RATE_PM, "rand": RATE_RAND, "seq": RATE_SEQ}


def one_selector(name, n, cycles):
    """Run one selector's seeded workload on both backends; time each
    and compare the final states bitwise."""
    topology = CompleteTopology(n)
    values = np.random.default_rng(SEED).normal(0.0, 1.0, n)
    timings, rates, finals = {}, {}, {}
    for backend in ("reference", "vectorized"):
        scenario = Scenario(
            topology,
            values,
            pair_protocol=PairProtocolSpec(selector=name, track_phi=False),
            seed=SEED,
            backend=backend,
        )
        engine = GossipEngine(scenario)
        start = time.perf_counter()
        result = engine.run(cycles, record="end")
        timings[backend] = time.perf_counter() - start
        trajectory = result.variance_array("avg")
        # telescoped geometric mean of the per-cycle ratios
        rates[backend] = float(
            (trajectory[-1] / trajectory[0]) ** (1.0 / cycles)
        )
        finals[backend] = engine.alive_column("avg")
    return {
        "rate": rates["vectorized"],
        "theory": SELECTORS[name],
        "reference_seconds": timings["reference"],
        "vectorized_seconds": timings["vectorized"],
        "speedup": timings["reference"] / timings["vectorized"],
        "bitwise_equal": bool(
            np.array_equal(finals["reference"], finals["vectorized"])
            and rates["reference"] == rates["vectorized"]
        ),
    }


def compute_avg(n=N, cycles=CYCLES):
    series = {"n": n, "cycles": cycles}
    reference_total = vectorized_total = 0.0
    for name in SELECTORS:
        row = one_selector(name, n, cycles)
        reference_total += row["reference_seconds"]
        vectorized_total += row["vectorized_seconds"]
        for key, value in row.items():
            series[f"{name}_{key}"] = value
    series["reference_seconds"] = reference_total
    series["seconds"] = vectorized_total
    series["speedup"] = reference_total / vectorized_total
    series["bitwise_equal_backends"] = all(
        series[f"{name}_bitwise_equal"] for name in SELECTORS
    )
    return series


def render(series):
    table = Table(
        headers=["getPair", "rate", "theory", "ref s", "vec s", "speedup"],
        title=(
            f"A1: kernel-hosted AVG selectors — Figure 3 workload at "
            f"N={series['n']}, {series['cycles']} cycles"
        ),
    )
    for name in SELECTORS:
        table.add_row(
            name,
            series[f"{name}_rate"],
            series[f"{name}_theory"],
            series[f"{name}_reference_seconds"],
            series[f"{name}_vectorized_seconds"],
            series[f"{name}_speedup"],
        )
    table.add_row(
        "total", "", "", series["reference_seconds"], series["seconds"],
        series["speedup"],
    )
    return table.render()


def check(series):
    assert series["bitwise_equal_backends"], (
        "reference and vectorized backends diverged in pair mode"
    )
    for name in SELECTORS:
        rate, theory = series[f"{name}_rate"], series[f"{name}_theory"]
        assert abs(rate - theory) / theory < 0.1, (
            f"{name} empirical rate {rate:.4f} is off the §3.3 theory "
            f"value {theory:.4f}"
        )
    # the speedup floor is a paper-scale claim; smoke sizes only check
    # correctness (sub-second vectorized runs are too noisy to gate)
    if series["n"] >= N:
        assert series["speedup"] >= SPEEDUP_FLOOR, (
            f"vectorized speedup {series['speedup']:.1f}x at "
            f"N={series['n']} is below the {SPEEDUP_FLOOR}x acceptance "
            f"floor"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--cycles", type=int, default=CYCLES)
    args = parser.parse_args(argv)
    series = compute_avg(args.n, args.cycles)
    emit("avg", render(series))
    # only acceptance-scale runs refresh the git-tracked archive;
    # smoke sizes stay in benchmarks/out/
    emit_json("avg", series, archive=args.n >= N)
    check(series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
