"""Experiment F — fault-tolerant execution: recovery latency and
checkpoint round-trip cost at scale.

The fault-tolerance layer makes two promises the benchmarks must keep
honest: recovery is *cheap* (killing a shard worker mid-run costs a
journal replay plus a respawn, not a rerun) and recovery is *exact*
(the healed run's trajectory is bitwise-identical to an undisturbed
one, because the journal snapshot/replay consumes no randomness). This
benchmark measures both on the monitoring-suite workload at
N = 1 000 000:

* **Checkpoint round trip.** One run is checkpointed mid-flight
  (timing the atomic payload+manifest write and the payload size),
  restored into a fresh engine (timing the restore), and run to
  completion — the resumed matrix must equal the uninterrupted run's
  bitwise. Write and restore seconds are the cost a nightly pays per
  checkpoint interval.
* **Worker-kill recovery.** A sharded run is armed with a
  :class:`~repro.kernel.FaultSpec` that SIGKILLs one worker mid-run,
  once with respawn credits (journal replay, new workers at the next
  schedule: the ``respawn_*`` keys) and once with ``max_respawns=0``
  (degrade to single-process vectorized execution at once: the
  ``inline_*`` keys). Both must finish bitwise-equal to the vectorized
  oracle; the structured :class:`~repro.kernel.PoolHealthReport`
  supplies the recovery latency that lands in the archive.
* **What arming costs a calm run.** The same sharded run with no
  fault, under ``on_failure="raise"`` (``unarmed_run_seconds``) and
  under ``"respawn"`` (``armed_run_seconds``): the difference is the
  per-schedule matrix snapshot of the healing journal and the
  pipeline it holds one schedule deep.

Results land in ``benchmarks/out/BENCH_faults.json`` (paper-scale runs
also refresh the git-tracked ``BENCH_faults.json`` at the repo root).
Run as a script: ``python benchmarks/bench_faults.py [--n N]``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.analysis import Table
from repro.kernel import (
    FaultSpec,
    GossipEngine,
    ShardedBackend,
    latest_checkpoint,
)

from _common import emit, emit_json
from bench_scale import service_scenario

N = 1_000_000
CYCLES = 6
SEED = 23
WORKERS = 2
SPLIT = 3  # checkpoint after this many cycles
KILL_AT_CALL = 2  # apply-call index the worker-kill fault fires at
#: ceiling on worker-kill recovery (journal replay + respawn); at 1M
#: the replay re-applies one cycle's segments inline (~vectorized cycle
#: cost) and the respawn is a fork + segment remap, so anything beyond
#: this is a stall, not a recovery
RECOVERY_CEILING_SECONDS = 60.0
#: the killed legs, by archive key prefix: the respawn budget of each
#: (``inline`` was a policy of its own before it became a budget of 0;
#: the keys keep BENCH_history.jsonl and diff_bench.py lined up)
RECOVERY_LEGS = {"respawn": 2, "inline": 0}
#: the calm legs, by archive key prefix: the failure policy of each
CALM_LEGS = {"unarmed": "raise", "armed": "respawn"}


def timed_run(scenario, cycles):
    """Wall-clock one engine run; returns (seconds, final matrix)."""
    with GossipEngine(scenario) as engine:
        start = time.perf_counter()
        engine.run(cycles)
        return time.perf_counter() - start, engine.matrix.copy()


def compute_checkpoint(series, n, cycles, split):
    """Checkpoint at ``split`` cycles, restore, finish; time each leg
    and compare bitwise against the uninterrupted run."""
    full_seconds, full_matrix = timed_run(
        service_scenario(n, "vectorized", cycles=cycles), cycles
    )
    series["vectorized_seconds"] = full_seconds
    with TemporaryDirectory() as tmp:
        with GossipEngine(
            service_scenario(n, "vectorized", cycles=cycles)
        ) as engine:
            engine.run(split)
            start = time.perf_counter()
            manifest = engine.checkpoint(tmp)
            series["checkpoint_write_seconds"] = (
                time.perf_counter() - start
            )
        series["checkpoint_payload_bytes"] = (
            manifest.with_suffix(".npz").stat().st_size
        )
        assert latest_checkpoint(tmp) == manifest
        start = time.perf_counter()
        resumed = GossipEngine.restore(
            service_scenario(n, "vectorized", cycles=cycles), manifest
        )
        series["checkpoint_restore_seconds"] = time.perf_counter() - start
        with resumed:
            start = time.perf_counter()
            resumed.run(cycles - split)
            series["resume_tail_seconds"] = time.perf_counter() - start
            series["resume_bitwise_equal"] = bool(
                np.array_equal(full_matrix, resumed.matrix)
            )
    return full_matrix


def compute_recovery(series, n, cycles, oracle_matrix):
    """Kill one worker mid-run with and without respawn credits;
    record the health report's recovery latency and the bitwise
    outcome."""
    for leg, max_respawns in RECOVERY_LEGS.items():
        backend = ShardedBackend(WORKERS, on_failure="respawn",
                                 max_respawns=max_respawns)
        backend.inject_faults(
            [FaultSpec("kill_worker", worker=1, at_call=KILL_AT_CALL)]
        )
        scenario = service_scenario(n, backend, cycles=cycles)
        seconds, matrix = timed_run(scenario, cycles)
        report = backend.health_report()
        series[f"{leg}_run_seconds"] = seconds
        series[f"{leg}_recovery_seconds"] = report.recovery_seconds
        series[f"{leg}_events"] = len(report.events)
        series[f"{leg}_respawns"] = report.respawns
        series[f"{leg}_degraded"] = report.degraded
        series[f"{leg}_bitwise_equal"] = bool(
            np.array_equal(oracle_matrix, matrix)
        )


def compute_arming(series, n, cycles, oracle_matrix):
    """The same calm run under each policy: what the journal costs a
    pool nothing happens to."""
    for leg, policy in CALM_LEGS.items():
        backend = ShardedBackend(WORKERS, on_failure=policy)
        scenario = service_scenario(n, backend, cycles=cycles)
        seconds, matrix = timed_run(scenario, cycles)
        series[f"{leg}_run_seconds"] = seconds
        series[f"{leg}_bitwise_equal"] = bool(
            np.array_equal(oracle_matrix, matrix)
        )
        assert not backend.health_report().events


def compute(n=N, cycles=CYCLES, split=SPLIT):
    series = {
        "n": n,
        "cycles": cycles,
        "split": split,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
    }
    oracle_matrix = compute_checkpoint(series, n, cycles, split)
    compute_recovery(series, n, cycles, oracle_matrix)
    compute_arming(series, n, cycles, oracle_matrix)
    return series


def render(series):
    table = Table(
        headers=["leg", "seconds", "bitwise equal"],
        title=(
            f"F: fault-tolerant execution, N={series['n']}, "
            f"{series['cycles']} cycles, checkpoint at cycle "
            f"{series['split']}, {series['workers']} workers, "
            f"{series['cpu_count']} cpu(s)"
        ),
    )
    table.add_row("vectorized (uninterrupted)",
                  series["vectorized_seconds"], True)
    table.add_row("checkpoint write",
                  series["checkpoint_write_seconds"], "-")
    table.add_row("checkpoint restore",
                  series["checkpoint_restore_seconds"], "-")
    table.add_row("resume tail", series["resume_tail_seconds"],
                  series["resume_bitwise_equal"])
    for leg in RECOVERY_LEGS:
        table.add_row(
            f"worker kill ({leg})", series[f"{leg}_run_seconds"],
            series[f"{leg}_bitwise_equal"],
        )
    for leg in CALM_LEGS:
        table.add_row(
            f"calm pool ({leg})", series[f"{leg}_run_seconds"],
            series[f"{leg}_bitwise_equal"],
        )
    lines = [table.render(), ""]
    lines.append(
        f"checkpoint payload: "
        f"{series['checkpoint_payload_bytes'] / 1024**2:.1f} MiB"
    )
    lines.append(
        "worker-kill recovery latency: "
        + "; ".join(
            f"{leg} {series[f'{leg}_recovery_seconds'] * 1e3:.1f}ms "
            f"({series[f'{leg}_respawns']} respawn(s), "
            f"degraded={series[f'{leg}_degraded']})"
            for leg in RECOVERY_LEGS
        )
    )
    lines.append(
        f"arming a calm pool: "
        f"{series['armed_run_seconds'] / series['unarmed_run_seconds']:.2f}x "
        f"the unarmed run"
    )
    return "\n".join(lines)


def check(series):
    for key in sorted(series):
        if key.endswith("bitwise_equal"):
            assert series[key], (
                f"{key} is False: recovery diverged from the oracle"
            )
    assert series["respawn_respawns"] == 1 and not series["respawn_degraded"]
    assert series["inline_degraded"]
    for leg in RECOVERY_LEGS:
        latency = series[f"{leg}_recovery_seconds"]
        assert 0.0 < latency < RECOVERY_CEILING_SECONDS, (
            f"{leg} recovery took {latency:.1f}s "
            f"(ceiling {RECOVERY_CEILING_SECONDS:g}s)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--cycles", type=int, default=CYCLES)
    parser.add_argument("--split", type=int, default=SPLIT,
                        help="checkpoint after this many cycles")
    args = parser.parse_args(argv)
    if not 0 < args.split < args.cycles:
        parser.error("--split must fall strictly inside --cycles")
    series = compute(args.n, args.cycles, args.split)
    emit("faults", render(series))
    # only acceptance-scale runs refresh the git-tracked archive
    emit_json("faults", series, archive=args.n >= N)
    check(series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
