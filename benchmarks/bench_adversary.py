"""Experiment R1 — the adversarial robustness report at paper scale.

Runs the declarative robustness sweep
(:class:`repro.analysis.RobustnessSweep`): size estimation under
``lying`` (byzantine responders) and ``inject`` (stubborn in-protocol
corruption) adversaries across adversary fraction × churn rate ×
topology, N = 100 000 by default. The headline claim: at 10 % lying
nodes the median-based size estimate stays within 5 % of the truth
while the plain mean diverges — robustness comes from the read-out
reduction, not from the protocol.

The benchmark also replays every adversary kind (inject, lying,
partition, eclipse) on all three backends — reference, vectorized and
sharded at worker counts 1, 2 and 4 — at N = 10 000 and asserts the
trajectories agree bitwise: the backend-equivalence contract holds
under any adversary configuration because every adversarial effect is
engine-side.

Results land in ``benchmarks/out/BENCH_adversary.json`` (paper-scale
runs also refresh the git-tracked copy at the repo root) plus the
robustness-report figure ``benchmarks/out/FIG_adversary.svg``. A smoke
configuration (``--n 50000``) runs a reduced grid for CI.

Run as a script: ``python benchmarks/bench_adversary.py [--n N]``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import (
    RobustnessSweep,
    Table,
    render_robustness_svg,
)
from repro.kernel import AdversarySpec, ADVERSARY_KINDS, GossipEngine, Scenario
from repro.rng import make_rng
from repro.topology import CompleteTopology, RandomRegularTopology

from _common import OUT_DIR, emit, emit_json

N = 100_000
SEED = 2004
HEADLINE_FRACTION = 0.1
SECONDS_CEILING = 300.0  # acceptance target at N = 100 000
EQUIVALENCE_N = 10_000
EQUIVALENCE_CYCLES = 6
EQUIVALENCE_WORKERS = (1, 2, 4)


def _equivalence_scenario(kind, n, backend):
    """One adversarial scenario per kind; eclipse runs on the CSR
    overlay it was built for, the others on the complete graph."""
    if kind == "eclipse":
        topology = RandomRegularTopology(n, 20, seed=SEED)
    else:
        topology = CompleteTopology(n)
    values = make_rng(SEED).normal(10.0, 4.0, n)
    return Scenario(
        topology,
        values,
        adversary=AdversarySpec(kind=kind, fraction=0.1, value=100.0),
        seed=SEED,
        backend=backend,
    )


def equivalence_check(n=EQUIVALENCE_N, cycles=EQUIVALENCE_CYCLES):
    """Replay every adversary kind on reference, vectorized and sharded
    (workers 1/2/4); bitwise-compare matrices, exchange counts and the
    reported view."""
    backends = ["reference", "vectorized"] + [
        f"sharded:{workers}" for workers in EQUIVALENCE_WORKERS
    ]
    outcome = {}
    for kind in ADVERSARY_KINDS:
        snapshots = {}
        for backend in backends:
            engine = GossipEngine(_equivalence_scenario(kind, n, backend))
            try:
                result = engine.run(cycles)
                snapshots[backend] = (
                    engine.matrix,
                    result.exchange_counts,
                    engine.reported_column(),
                )
            finally:
                engine.close()
        reference = snapshots["reference"]
        outcome[kind] = all(
            np.array_equal(snapshots[backend][0], reference[0])
            and snapshots[backend][1] == reference[1]
            and np.array_equal(snapshots[backend][2], reference[2])
            for backend in backends[1:]
        )
    return outcome


def build_sweep(n=N):
    """Paper-scale grid at the acceptance size, a reduced grid below."""
    if n >= N:
        return RobustnessSweep(n=n, seed=SEED)
    return RobustnessSweep(
        n=n,
        runs=2,
        fractions=(0.0, HEADLINE_FRACTION),
        churn_rates=(0.0, 0.01),
        topologies=("complete",),
        seed=SEED,
    )


def _headline(rows, kind):
    for row in rows:
        if (
            row["kind"] == kind
            and row["topology"] == "complete"
            and row["churn_rate"] == 0.0
            and row["fraction"] == HEADLINE_FRACTION
        ):
            return row
    return None


def compute_adversary(n=N):
    sweep = build_sweep(n)
    start = time.perf_counter()
    payload = sweep.run()
    sweep_seconds = time.perf_counter() - start
    start = time.perf_counter()
    equivalence = equivalence_check()
    equivalence_seconds = time.perf_counter() - start
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "FIG_adversary.svg").write_text(
        render_robustness_svg(payload) + "\n"
    )
    lying = _headline(payload["rows"], "lying")
    inject = _headline(payload["rows"], "inject")
    return {
        "n": n,
        "cycles": sweep.cycles,
        "cycles_per_epoch": sweep.cycles_per_epoch,
        "runs": sweep.runs,
        "backend": sweep.backend,
        "seconds": sweep_seconds + equivalence_seconds,
        "sweep_seconds": sweep_seconds,
        "equivalence_seconds": equivalence_seconds,
        "headline_fraction": HEADLINE_FRACTION,
        "lying_error_mean": lying["error_mean"] if lying else None,
        "lying_error_median": lying["error_median"] if lying else None,
        "lying_error_trimmed": lying["error_trimmed"] if lying else None,
        "inject_error_median": inject["error_median"] if inject else None,
        "equivalence": equivalence,
        "bitwise_equal_backends": all(equivalence.values()),
        "rows": payload["rows"],
    }


def render(series):
    table = Table(
        headers=["metric", "value"],
        title=(
            f"R1: adversarial robustness — N={series['n']}, "
            f"{series['runs']} runs/cell ({series['backend']} backend)"
        ),
    )
    table.add_row("wall-clock seconds", series["seconds"])
    table.add_row("sweep cells", len(series["rows"]))
    table.add_row(
        f"lying @{series['headline_fraction']:.0%}: mean error",
        series["lying_error_mean"],
    )
    table.add_row(
        f"lying @{series['headline_fraction']:.0%}: median error",
        series["lying_error_median"],
    )
    table.add_row(
        f"lying @{series['headline_fraction']:.0%}: trimmed error",
        series["lying_error_trimmed"],
    )
    table.add_row(
        f"inject @{series['headline_fraction']:.0%}: median error",
        series["inject_error_median"],
    )
    table.add_row("bitwise-equal backends", series["bitwise_equal_backends"])
    table.add_row("figure", "benchmarks/out/FIG_adversary.svg")
    return table.render()


def check(series):
    for kind, equal in series["equivalence"].items():
        assert equal, (
            f"backends diverged under the {kind} adversary "
            f"(reference vs vectorized/sharded:1/2/4 at N={EQUIVALENCE_N})"
        )
    # the headline robustness claim: median-based size estimation
    # survives 10% lying nodes, the plain mean does not
    assert series["lying_error_median"] is not None
    assert series["lying_error_median"] < 0.05, (
        f"median size-estimation error {series['lying_error_median']:.4f} "
        f"at {series['headline_fraction']:.0%} lying nodes exceeds the "
        f"5% acceptance bound"
    )
    assert series["lying_error_mean"] > 0.5, (
        f"plain-mean error {series['lying_error_mean']:.4f} did not "
        f"diverge at {series['headline_fraction']:.0%} lying nodes — "
        f"the contrast claim is broken"
    )
    # the wall-clock ceiling is a paper-scale claim; smoke sizes only
    # check correctness
    if series["n"] >= N:
        assert series["seconds"] < SECONDS_CEILING, (
            f"N={series['n']} robustness sweep took "
            f"{series['seconds']:.1f}s, ceiling is {SECONDS_CEILING}s"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    args = parser.parse_args(argv)
    series = compute_adversary(args.n)
    emit("adversary", render(series))
    # only acceptance-scale runs refresh the git-tracked archive;
    # smoke sizes stay in benchmarks/out/
    emit_json("adversary", series, archive=args.n >= N)
    check(series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
