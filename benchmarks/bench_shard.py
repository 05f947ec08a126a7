"""Experiment S3 — the sharded backend at million-node scale.

The paper's scalability claim is asymptotic — "the performance of the
protocol does not depend on network size" — so the reproduction should
not stop where one process's numpy throughput does. This benchmark
times the multi-process :class:`~repro.kernel.ShardedBackend` against
the single-process vectorized backend on the same monitoring-suite
workload (five concurrent aggregation instances, identical RNG draws)
at N = 1 000 000, sweeping the worker count (1/2/4/8 by default), and
asserts three things:

* **Correctness at every scale.** The sharded matrix is bitwise-equal
  to the vectorized one at N (all worker counts), and bitwise-equal
  to the *sequential reference* execution at the paper's N = 100 000
  across the full scenario surface: plain exchange cycles, pair mode
  (GETPAIR_PM), churn, and the 20-regular CSR overlay.
* **Speedup on multi-core hosts.** Where the host has ≥ 4 cores and the
  run is at million-node scale, the best sharded configuration must be
  ≥ 2× faster than single-process vectorized (2× is the theoretical
  ceiling of a 2-core host, so the gate needs core headroom over its
  floor). On smaller hosts the sweep is recorded but not gated — the
  workers would time-share cores; ``cpu_count`` lands in the archive
  so readers can tell which regime produced the numbers.
* **No degenerate-host overhead.** ``sharded:auto`` (the CLI default)
  must stay within :data:`OVERHEAD_CEILING_PCT` of vectorized when it
  resolves to inline execution (single schedulable core, where a pool
  can only add IPC on top of the same serial work). Both sides are
  best-of-:data:`REPS` so the gate measures code, not scheduler noise.

Each worker count also records the parent-side **phase breakdown**:
``plan`` (partner staging + greedy segmentation CPU), ``apply``
(parent-side segment application: inline mode), and ``sync`` (time
blocked on worker replies — the worker latency the pipeline failed to
hide) — ``worker_apply``, the busy seconds the slowest worker
reported back, and ``window``, the greedy window the pool planned with
(an eighth of the rows, capped at 65 536 from N = 524 288 on). At
W = 1 that worker runs the whole batch kernel and nothing else, so
``lone_worker_apply_ratio`` — its busy seconds over the vectorized
backend's wall-clock *of the same run* — is reported, not gated: it
reads 0.5–0.7 on an idle host, but parent and worker share the cores
with their neighbours, and on a contended host it crosses any ceiling
that would still say something.

The sweep runs ``record="end"``; one more leg runs the same workload
with ``record="cycle"`` — the per-cycle variance and mean every figure
is read from — on vectorized and ``sharded:2``, and archives seconds,
the parent's ``sync`` seconds, the workers' ``apply`` / ``moments``
seconds and whether the two recorded trajectories are bitwise equal.

``--tenm`` runs the scale-up experiment instead: Figure 3(a)'s
one-execution variance reduction and a Figure 4-style one-epoch size
estimation at N = 10 000 000, gated by an explicit peak-RSS budget
(:data:`TENM_RSS_BUDGET_BYTES`); results land in
``BENCH_shard10m.json`` and accumulate in ``BENCH_history.jsonl``.

Results land in ``benchmarks/out/BENCH_shard.json`` (paper-scale runs
also refresh the git-tracked ``BENCH_shard.json`` at the repo root; a
run at the pinned benchmark's N = 100 000 writes and archives
``BENCH_shard100k.json`` instead).
Run as a script: ``python benchmarks/bench_shard.py [--n N] [--workers
1 2 4 8] [--tenm]``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.analysis import Table
from repro.avg import RATE_RAND, empirical_reduction_rates
from repro.core import SizeEstimationConfig, SizeEstimationExperiment
from repro.kernel import (
    ChurnTrace,
    GossipEngine,
    PairProtocolSpec,
    Scenario,
    run_scenario,
)
from repro.rng import make_rng
from repro.topology import CompleteTopology, RandomRegularTopology

from _common import emit, emit_json, peak_rss_bytes
from bench_scale import service_scenario

N = 1_000_000
CYCLES = 5
SEED = 23
WORKER_SWEEP = (1, 2, 4, 8)
EQUIV_N = 100_000  # reference-oracle equivalence scale
#: the size of the pinned benchmark's service5 workloads: a run at it
#: is archived as BENCH_shard100k.json, beside the paper-scale one
PINNED_N = 100_000
SPEEDUP_FLOOR = 2.0  # acceptance target at N = 1M on multi-core hosts
REPS = 3  # best-of reps for the gated vectorized/auto timings
OVERHEAD_CEILING_PCT = 2.0  # sharded:auto (inline) vs vectorized

TENM_N = 10_000_000
TENM_EPOCH = 30  # one Figure 4 epoch at 10M
#: peak-RSS ceiling for the N = 10M scale-up run. Measured ~0.73 GiB
#: on the archive box (values vector + value matrix + pair bookkeeping
#: + planner scratch, each O(N), ~80 MB per float64 array at 10M); the
#: 1.5 GiB budget leaves allocator headroom while still catching a
#: reintroduced O(N)-sized copy regression on the growth/adopt path.
TENM_RSS_BUDGET_BYTES = int(1.5 * 1024**3)


def timed_engine_run(scenario, cycles, record="end"):
    """Wall-clock one engine run; returns (seconds, final matrix,
    backend probe). The probe carries the sharded backend's parent-side
    phase breakdown, the slowest worker's busy seconds per kind of
    work, whether ``auto`` stayed inline (empty/None for other
    backends), and the recorded variance / mean trajectories."""
    with GossipEngine(scenario) as engine:
        start = time.perf_counter()
        result = engine.run(cycles, record=record)
        elapsed = time.perf_counter() - start
        backend = engine._backend
        probe = {
            "phase_seconds": dict(getattr(backend, "phase_seconds", {})),
            "worker_seconds": {
                kind: max(per_worker)
                for kind, per_worker in getattr(
                    backend, "worker_seconds", {}
                ).items()
            },
            "inline": getattr(backend, "inline", None),
            "window": getattr(backend, "_window", None),
            "trajectories": (result.variances, result.means),
        }
        return elapsed, engine.matrix, probe


def best_of(reps, build_scenario, cycles, record="end"):
    """Fastest of ``reps`` fresh engine runs — the gated comparisons
    use best-of so one scheduler hiccup on a shared box cannot fail an
    overhead gate that the code actually meets."""
    best = None
    for _ in range(reps):
        seconds, matrix, probe = timed_engine_run(
            build_scenario(), cycles, record
        )
        if best is None or seconds < best[0]:
            best = (seconds, matrix, probe)
    return best


def record_cycle_leg(n, cycles, reps, workers=2):
    """The product path — variance and mean recorded after every cycle
    — on vectorized and ``sharded:<workers>``: wall-clock, the parent's
    blocked seconds, what the workers were busy with, and whether the
    two recorded trajectories (and final matrices) agree bitwise."""
    vec_seconds, vec_matrix, vec_probe = best_of(
        reps, lambda: service_scenario(n, "vectorized", cycles=cycles),
        cycles, "cycle",
    )
    sh_seconds, sh_matrix, sh_probe = best_of(
        reps,
        lambda: service_scenario(n, f"sharded:{workers}", cycles=cycles),
        cycles, "cycle",
    )
    prefix = f"record_cycle_sharded_w{workers}"
    leg = {
        "record_cycle_vectorized_seconds": vec_seconds,
        f"{prefix}_seconds": sh_seconds,
        f"{prefix}_sync_seconds": sh_probe["phase_seconds"].get("sync", 0.0),
        "record_cycle_bitwise_equal": bool(
            np.array_equal(vec_matrix, sh_matrix)
            and vec_probe["trajectories"] == sh_probe["trajectories"]
        ),
    }
    for kind in ("apply", "moments"):
        leg[f"{prefix}_worker_{kind}_seconds"] = (
            sh_probe["worker_seconds"].get(kind, 0.0)
        )
    return leg


def equivalence_scenarios(n, seed=SEED):
    """The acceptance surface at the reference-oracle scale: one
    scenario per kernel execution family."""
    values = make_rng(seed).normal(10.0, 4.0, n)
    complete = CompleteTopology(n)
    sparse = RandomRegularTopology(n, 20, seed=seed)
    return {
        "plain": lambda backend: service_scenario(
            n, backend, seed=seed, cycles=3
        ),
        "pair_pm": lambda backend: Scenario(
            complete, values,
            pair_protocol=PairProtocolSpec("pm", track_phi=False),
            seed=seed, backend=backend,
        ),
        "churn": lambda backend: Scenario(
            complete, values,
            churn=ChurnTrace.diurnal(n, 20, period=20, amplitude=n // 10,
                                     fluctuation=max(n // 1000, 1)),
            seed=seed, backend=backend,
        ),
        "sparse_regular20": lambda backend: Scenario(
            sparse, values, seed=seed, backend=backend,
        ),
    }


def check_equivalence(n, workers=2, cycles=3):
    """Sharded-vs-reference bitwise equality over the full scenario
    surface at ``n``; returns {family: bool}."""
    outcomes = {}
    for family, build in equivalence_scenarios(n).items():
        _, ref_matrix, _ = timed_engine_run(build("reference"), cycles)
        _, sh_matrix, _ = timed_engine_run(
            build(f"sharded:{workers}"), cycles
        )
        outcomes[family] = bool(np.array_equal(ref_matrix, sh_matrix))
    return outcomes


def compute_shard(n=N, cycles=CYCLES, workers=WORKER_SWEEP, equiv_n=EQUIV_N,
                  reps=REPS):
    vec_seconds, vec_matrix, _ = best_of(
        reps, lambda: service_scenario(n, "vectorized", cycles=cycles),
        cycles,
    )
    series = {
        "n": n,
        "cycles": cycles,
        "aggregates": 5,
        "cpu_count": os.cpu_count(),
        "worker_sweep": ",".join(str(w) for w in workers),
        "equiv_n": equiv_n,
        "reps": reps,
        "vectorized_seconds": vec_seconds,
    }
    best_seconds, best_workers = None, None
    all_bitwise = True
    for w in workers:
        sh_seconds, sh_matrix, probe = best_of(
            reps,
            lambda: service_scenario(n, f"sharded:{w}", cycles=cycles),
            cycles,
        )
        series[f"sharded_w{w}_seconds"] = sh_seconds
        for phase in ("plan", "apply", "sync"):
            series[f"sharded_w{w}_{phase}_seconds"] = (
                probe["phase_seconds"].get(phase, 0.0)
            )
        series[f"sharded_w{w}_worker_apply_seconds"] = (
            probe["worker_seconds"].get("apply", 0.0)
        )
        series[f"sharded_w{w}_window"] = probe["window"]
        equal = bool(np.array_equal(vec_matrix, sh_matrix))
        series[f"sharded_w{w}_bitwise_equal"] = equal
        all_bitwise = all_bitwise and equal
        if best_seconds is None or sh_seconds < best_seconds:
            best_seconds, best_workers = sh_seconds, w
    series["best_workers"] = best_workers
    series["speedup"] = vec_seconds / best_seconds
    if 1 in workers:
        series["lone_worker_apply_ratio"] = (
            series["sharded_w1_worker_apply_seconds"] / vec_seconds
        )
    # the CLI-default configuration: `auto` resolves the worker count
    # from scheduler affinity and falls back to inline execution on
    # degenerate hosts/sizes — this is the "never slower than
    # vectorized" acceptance surface, so it gets best-of treatment too
    auto_seconds, auto_matrix, auto_probe = best_of(
        reps, lambda: service_scenario(n, "sharded:auto", cycles=cycles),
        cycles,
    )
    series["sharded_auto_seconds"] = auto_seconds
    series["sharded_auto_inline"] = bool(auto_probe["inline"])
    auto_equal = bool(np.array_equal(vec_matrix, auto_matrix))
    series["sharded_auto_bitwise_equal"] = auto_equal
    all_bitwise = all_bitwise and auto_equal
    series["auto_overhead_pct"] = (
        (auto_seconds - vec_seconds) / vec_seconds * 100.0
    )
    series.update(record_cycle_leg(n, cycles, reps))
    all_bitwise = all_bitwise and series["record_cycle_bitwise_equal"]
    series["bitwise_equal"] = all_bitwise
    # the ≥2x acceptance claim only makes sense where the workers have
    # core headroom over the floor (2x IS a 2-core host's ceiling), at
    # a scale whose timings are not noise
    series["timing_gated"] = bool(
        (os.cpu_count() or 1) >= 4 and n >= 1_000_000
    )
    equivalences = check_equivalence(equiv_n)
    for family, equal in equivalences.items():
        series[f"equiv_{family}_bitwise_equal"] = equal
    return series


def render(series):
    table = Table(
        headers=["backend", "seconds", "vs vectorized", "bitwise equal"],
        title=(
            f"S3: sharded backend wall-clock, N={series['n']}, "
            f"{series['cycles']} cycles, {series['aggregates']} concurrent "
            f"aggregates, {series['cpu_count']} cpu(s) "
            f"(best: {series['best_workers']} worker(s), "
            f"speedup {series['speedup']:.2f}x"
            f"{'' if series['timing_gated'] else ', not gated'})"
        ),
    )
    vec = series["vectorized_seconds"]
    table.add_row("vectorized", vec, 1.0, True)
    for w in series["worker_sweep"].split(","):
        seconds = series[f"sharded_w{w}_seconds"]
        table.add_row(
            f"sharded:{w}", seconds, vec / seconds,
            series[f"sharded_w{w}_bitwise_equal"],
        )
    mode = "inline" if series["sharded_auto_inline"] else "pool"
    table.add_row(
        f"sharded:auto ({mode})", series["sharded_auto_seconds"],
        vec / series["sharded_auto_seconds"],
        series["sharded_auto_bitwise_equal"],
    )
    lines = [table.render(), ""]
    lines.append(
        "parent-side phase seconds (plan / apply / sync): "
        + "; ".join(
            f"w={w} "
            f"{series[f'sharded_w{w}_plan_seconds']:.3f} / "
            f"{series[f'sharded_w{w}_apply_seconds']:.3f} / "
            f"{series[f'sharded_w{w}_sync_seconds']:.3f}"
            for w in series["worker_sweep"].split(",")
        )
    )
    lines.append(
        "pool planning window (steps): "
        + "; ".join(
            f"w={w} {series[f'sharded_w{w}_window']}"
            for w in series["worker_sweep"].split(",")
        )
    )
    lines.append(
        "slowest worker's apply seconds: "
        + "; ".join(
            f"w={w} {series[f'sharded_w{w}_worker_apply_seconds']:.3f}"
            for w in series["worker_sweep"].split(",")
        )
    )
    if "lone_worker_apply_ratio" in series:
        lines.append(
            f"lone_worker_apply_ratio (w=1 worker's apply / vectorized "
            f"run): {series['lone_worker_apply_ratio']:.2f}"
        )
    lines.append(
        f"record=\"cycle\": vectorized "
        f"{series['record_cycle_vectorized_seconds']:.3f}s, sharded:2 "
        f"{series['record_cycle_sharded_w2_seconds']:.3f}s (parent sync "
        f"{series['record_cycle_sharded_w2_sync_seconds']:.3f}s; slowest "
        f"worker apply "
        f"{series['record_cycle_sharded_w2_worker_apply_seconds']:.3f}s, "
        f"moments "
        f"{series['record_cycle_sharded_w2_worker_moments_seconds']:.3f}s), "
        f"trajectories bitwise equal: "
        f"{series['record_cycle_bitwise_equal']}"
    )
    lines.append(
        f"sharded:auto overhead vs vectorized: "
        f"{series['auto_overhead_pct']:+.2f}% "
        f"(ceiling {OVERHEAD_CEILING_PCT:.0f}% when inline; "
        f"best-of-{series['reps']})"
    )
    lines.append(
        f"reference-oracle equivalence at N={series['equiv_n']}: "
        + ", ".join(
            f"{key[len('equiv_'):-len('_bitwise_equal')]}="
            f"{series[key]}"
            for key in sorted(series)
            if key.startswith("equiv_") and key.endswith("_bitwise_equal")
        )
    )
    return "\n".join(lines)


def check(series):
    for key in sorted(series):
        if key.endswith("bitwise_equal"):
            assert series[key], f"{key} is False: sharded execution diverged"
    if series["timing_gated"]:
        assert series["speedup"] >= SPEEDUP_FLOOR, (
            f"best sharded configuration is only "
            f"{series['speedup']:.2f}x over vectorized at N={series['n']} "
            f"on {series['cpu_count']} cores (floor {SPEEDUP_FLOOR}x)"
        )
    if series["sharded_auto_inline"] and series["n"] >= N:
        # the degenerate-host guarantee: when `auto` stays in-process
        # it must cost (almost) nothing over vectorized
        assert series["auto_overhead_pct"] <= OVERHEAD_CEILING_PCT, (
            f"sharded:auto (inline) is "
            f"{series['auto_overhead_pct']:.2f}% slower than vectorized "
            f"(ceiling {OVERHEAD_CEILING_PCT}%)"
        )


# -- the N = 10M scale-up run ---------------------------------------------


def compute_tenm(n=TENM_N):
    """Figure 3(a) + Figure 4 shapes at N = 10M under the peak-RSS
    budget: one AVG execution's variance reduction (RAND selector,
    complete topology) and one epoch of size estimation under
    diurnal churn."""
    series = {
        "n": n,
        "cpu_count": os.cpu_count(),
        "rss_budget_bytes": TENM_RSS_BUDGET_BYTES,
    }
    scenario = Scenario(
        CompleteTopology(n),
        make_rng(SEED).normal(0.0, 1.0, size=n),
        pair_protocol=PairProtocolSpec("rand"),
        cycles=1,
        seed=SEED,
    )
    start = time.perf_counter()
    variances = run_scenario(scenario).variance_array("avg")
    series["figure3a_seconds"] = time.perf_counter() - start
    series["figure3a_reduction"] = float(
        empirical_reduction_rates(variances)[0]
    )
    del scenario
    config = SizeEstimationConfig(
        cycles=TENM_EPOCH,
        cycles_per_epoch=TENM_EPOCH,
        initial_size=n,
        expected_leaders=1.0,
        seed=2004,
    )
    churn = ChurnTrace.diurnal(
        n, TENM_EPOCH, period=TENM_EPOCH // 2, amplitude=n // 100,
        fluctuation=n // 10_000,
    )
    experiment = SizeEstimationExperiment(config, churn=churn)
    start = time.perf_counter()
    experiment.run()
    series["figure4_seconds"] = time.perf_counter() - start
    report = experiment.reports[-1]
    series["figure4_estimate"] = float(report.estimate_mean)
    series["figure4_size_at_start"] = float(report.size_at_start)
    series["figure4_relative_error"] = float(report.relative_error)
    return series


def render_tenm(series):
    budget_gib = series["rss_budget_bytes"] / 1024**3
    rss = peak_rss_bytes().get("peak_rss_bytes", 0)
    return "\n".join([
        f"S3-10M: scale-up figures at N={series['n']} "
        f"({series['cpu_count']} cpu(s), "
        f"peak RSS {rss / 1024**3:.2f} GiB / budget {budget_gib:.1f} GiB)",
        f"  figure 3(a): variance reduction after one AVG execution = "
        f"{series['figure3a_reduction']:.4f} "
        f"(theory 1/e = {RATE_RAND:.4f}) "
        f"in {series['figure3a_seconds']:.1f}s",
        f"  figure 4: one-epoch size estimate = "
        f"{series['figure4_estimate']:.0f} "
        f"(actual at epoch start {series['figure4_size_at_start']:.0f}, "
        f"relative error {series['figure4_relative_error']:.4f}) "
        f"in {series['figure4_seconds']:.1f}s",
    ])


def check_tenm(series):
    assert (
        abs(series["figure3a_reduction"] - RATE_RAND) / RATE_RAND < 0.12
    ), (
        f"10M variance reduction {series['figure3a_reduction']:.4f} is "
        f"off the 1/e theory line"
    )
    assert series["figure4_relative_error"] < 0.1, (
        f"10M size estimate is {series['figure4_relative_error']:.2%} off"
    )
    rss = peak_rss_bytes().get("peak_rss_bytes")
    if rss is not None:
        assert rss <= series["rss_budget_bytes"], (
            f"N={series['n']} run peaked at {rss / 1024**3:.2f} GiB, "
            f"over the {series['rss_budget_bytes'] / 1024**3:.1f} GiB "
            f"budget"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--cycles", type=int, default=CYCLES)
    parser.add_argument("--workers", type=int, nargs="+",
                        default=list(WORKER_SWEEP),
                        help="worker counts to sweep")
    parser.add_argument("--equiv-n", type=int, default=EQUIV_N,
                        help="scale of the reference-oracle equivalence "
                             "checks")
    parser.add_argument("--reps", type=int, default=REPS,
                        help="best-of reps for the gated timings")
    parser.add_argument("--tenm", action="store_true",
                        help="run the N=10M scale-up figures instead of "
                             "the worker sweep")
    args = parser.parse_args(argv)
    if args.tenm:
        series = compute_tenm()
        emit("shard10m", render_tenm(series))
        emit_json("shard10m", series)
        check_tenm(series)
        return 0
    series = compute_shard(
        args.n, args.cycles, tuple(args.workers), args.equiv_n, args.reps
    )
    emit("shard", render(series))
    # only acceptance-scale runs refresh the git-tracked archive; a run
    # at the pinned benchmark's size keeps an archive of its own
    pinned = args.n == PINNED_N
    emit_json("shard100k" if pinned else "shard", series,
              archive=pinned or args.n >= N)
    check(series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
