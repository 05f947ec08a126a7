"""One workload, measured in a process of its own.

``run.py`` starts this file once per workload and reads one JSON object
per line from its standard output: a ``begin`` before and a ``rep``
after every repetition (so the parent can enforce the per-repetition
deadline and count a hang as a failure), ``rss``, ``reference`` and, in
a traced run, ``trace``. Nothing here decides pass or fail — the
parent's validity gate does.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"worker: no program to measure at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import spans as span_math  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.kernel import FaultSpec, GossipEngine, ShardedBackend  # noqa: E402

#: fewest repetitions a timed run makes, however long each takes
MIN_REPS = 3


class Calibration:
    """A fixed piece of work, timed before every repetition, that tells
    how fast the host is running at that moment.

    The host is a few virtual cores of a shared machine whose speed
    changes by a third for minutes at a time; CPU time changes with it,
    so it is the core that is slower, not the scheduler that is late.
    ``run.py`` divides the workload's times by this one. The work is
    the kind the program does — fancy-indexed gather, average and
    scatter on a five-column matrix, a stable argsort, an interpreter
    loop — but it calls nothing of the program, so no change to the
    program moves it, and it fits the core's own cache, so it reads
    the core and not the neighbours' memory traffic.
    """

    def __init__(self):
        rng = np.random.default_rng(2004)
        rows = 20_000
        self.matrix = rng.random((rows, 5))
        order = rng.permutation(rows)
        self.left, self.right = order[: rows // 2], order[rows // 2:]
        self.keys = rng.integers(0, 1 << 40, rows)

    def __call__(self) -> float:
        matrix, left, right = self.matrix, self.left, self.right
        started = time.perf_counter()
        for _ in range(12):
            mean = (matrix[left] + matrix[right]) * 0.5
            matrix[left] = mean
            matrix[right] = mean
        for _ in range(4):
            np.argsort(self.keys, kind="stable")
        total = 0
        for i in range(200_000):
            total += i & 3
        return time.perf_counter() - started


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def one_rep(workload, seed, wrap=workloads.unwrapped, recorder=None,
            inspect=None):
    """Set up, run, read the answer. Returns the timings, the answer
    and ``inspect(prepared)`` taken before the engine is let go. With a
    ``recorder``, set-up and run are the two root spans everything
    else nests under."""

    def root(name):
        return recorder.span(name) if recorder is not None else nullcontext()

    started = time.perf_counter()
    with root("setup"):
        prepared = workload.setup(seed, wrap)
    setup_s = time.perf_counter() - started
    try:
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        with root("run"):
            outcome = workload.run(prepared)
        run_s = time.perf_counter() - started
        cpu_s = cpu_seconds() - cpu_before
        answer = workload.answer(prepared, outcome)
        seen = inspect(prepared) if inspect is not None else None
        del outcome
    finally:
        workload.discard(prepared)
        # an engine and its partner provider refer to each other, so a
        # finished repetition's matrices wait for the cycle collector;
        # run it now, or peak memory depends on when it last happened
        del prepared
        gc.collect()
    return {"setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s}, answer, seen


def report_rep(index: int, rep, **readings):
    """Run ``rep()`` between a ``begin`` and a ``rep`` event, which
    also carries ``readings``. An exception is reported as the
    repetition's problem — the gate counts it and the run goes on —
    and ``None`` returned."""
    emit("begin", index=index)
    try:
        timings, answer, seen = rep()
    except Exception as error:
        emit("rep", index=index,
             problems=[f"raised {type(error).__name__}: {error}"])
        return None
    emit(
        "rep", index=index, **timings, **readings, digest=answer.digest,
        rel_error=answer.rel_error,
        convergence_factor=answer.convergence_factor,
        exchanges=answer.exchanges, counts=answer.counts,
        problems=answer.problems,
    )
    return timings, answer, seen


def warm_up(workload, seed: int) -> None:
    """One short untimed run, so imports, allocator pools and page
    cache are in their steady state before the first timed one."""
    short = copy.copy(workload)
    short.cycles = workload.warmup_cycles
    prepared = short.setup(seed)
    try:
        short.run(prepared)
    finally:
        short.discard(prepared)


def another(done: int, least: int, started: float, seconds: float,
            reps: int) -> bool:
    """Whether to start one more round: ``reps`` rounds when a count
    was asked for, otherwise until ``seconds`` have passed and at least
    ``least`` rounds are done."""
    if reps:
        return done < reps
    return done < least or time.perf_counter() - started < seconds


def measure(workload, seed: int, seconds: float, reps: int) -> None:
    """The untraced run: every end-to-end number comes from here."""
    calibrate = Calibration()
    calibrate()
    started = time.perf_counter()
    index = 0
    while another(index, MIN_REPS, started, seconds, reps):
        report_rep(index, lambda: one_rep(workload, seed),
                   calibration_s=calibrate())
        index += 1
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    emit("rss", peak_rss_mib=(self_kib + children_kib) / 1024.0)
    # after the memory reading: the reference run is not the workload
    emit("reference", digest=workload.reference_digest(seed))


def traced_rep(workload, seed: int):
    """One repetition with every layer boundary inside a span; what
    :func:`one_rep` returns, with the engine's read-outs and the
    recorder as the third item."""
    recorder = span_math.Recorder()
    backends = []

    def wrap(backend):
        backends.append(backend)
        return tracing.SpanBackend(backend, recorder)

    def readouts(prepared):
        return tracing.engine_readouts(prepared.engine, backends)

    installed = tracing.install(recorder)
    try:
        timings, answer, seen = one_rep(
            workload, seed, wrap, recorder, readouts
        )
    finally:
        installed.uninstall()
    return timings, answer, (seen, recorder)


def kill_probe(seed: int, smoke: bool) -> dict:
    """What losing a pool worker costs, detection included.

    ``service5_shard``'s scenario at N = 200 000 with a self-healing
    pool; worker 1 is SIGKILLed before apply call 3. ``outage_s`` is
    the killed run's wall time minus the same run left alone, which —
    unlike the pool's own ``recovery_seconds`` — includes the time it
    took to notice the death. The pool's liveness timeout is cut from
    120 s to 10 s for the probe, through the program's own knob, so a
    death noticed only by timeout shows as a ~10 s outage rather than
    stalling the benchmark.
    """
    n, trials, timeout = (4_000, 1, "2") if smoke else (200_000, 3, "10")
    cycles = 6
    workers = workloads.shard_workers()
    previous = os.environ.get("REPRO_SHARD_TIMEOUT")
    os.environ["REPRO_SHARD_TIMEOUT"] = timeout

    def run(backend):
        scenario = workloads.service5_scenario(n, seed, cycles, backend)
        engine = GossipEngine(scenario)
        started = time.perf_counter()
        try:
            engine.run(cycles, record="cycle")
        finally:
            engine.close()
        return time.perf_counter() - started, workloads.digest(engine.matrix)

    try:
        calm_s, expected = run(ShardedBackend(workers, on_failure="respawn"))
        outages, recoveries, respawns, by_timeout, wrong = [], [], 0, 0, 0
        for _ in range(trials):
            backend = ShardedBackend(workers, on_failure="respawn")
            backend.inject_faults(
                [FaultSpec("kill_worker", worker=workers - 1, at_call=3)]
            )
            killed_s, got = run(backend)
            report = backend.health_report()
            outages.append(killed_s - calm_s)
            recoveries.append(report.recovery_seconds)
            respawns += report.respawns
            by_timeout += sum(
                "within timeout" in event.get("failure", "")
                for event in report.events
            )
            wrong += got != expected
    finally:
        if previous is None:
            del os.environ["REPRO_SHARD_TIMEOUT"]
        else:
            os.environ["REPRO_SHARD_TIMEOUT"] = previous
    return {
        # the worst trial: a death noticed only by timeout is the case
        # this probe exists to put a number on, and a median hides it
        "pool.outage_s": max(outages),
        "pool.recovery_s": max(recoveries),
        "pool.respawns": respawns,
        "pool.detect_by_timeout": by_timeout,
        "wrong_digests": wrong,
    }


def trace(workload, seed: int, seconds: float, reps: int, smoke: bool,
          spans_out: str) -> None:
    """The traced run: untraced and traced repetitions in turn, so the
    overhead ratio compares like with like; the per-layer metrics are
    the first traced repetition's."""
    untraced, traced, first = [], [], None
    started = time.perf_counter()
    index = 0
    while another(index // 2, 1, started, seconds, reps):
        plain = report_rep(index, lambda: one_rep(workload, seed))
        spanned = report_rep(index + 1, lambda: traced_rep(workload, seed))
        index += 2
        if plain is None or spanned is None:
            continue
        untraced.append(plain[0]["run_s"])
        traced.append(spanned[0]["run_s"])
        first = first or spanned
    if first is None:
        return
    _, answer, (readouts, recorder) = first
    probe = None
    if workload.name == "service5_shard":
        emit("begin", index=index)
        probe = kill_probe(seed, smoke)
        emit("rep", index=index, problems=[
            f"{probe['wrong_digests']} healed runs differ from the "
            f"undisturbed one"
        ] if probe["wrong_digests"] else [])
    recorded = recorder.spans
    metrics = tracing.layer_metrics(
        recorded,
        recorder,
        readouts=readouts,
        exchanges=answer.exchanges,
        epochs_reported=answer.counts.get("epochs_reported", 0),
        rel_error=answer.rel_error,
        # tracing adds a fixed amount to every repetition while the
        # host's noise only ever adds, so the fastest of each kind is
        # the pair that isolates the overhead
        traced_run_s=min(traced),
        untraced_run_s=min(untraced),
        probe=probe,
    )
    notes = []
    if metrics["trace.coverage"] < 0.9:
        notes = span_math.uncovered_gaps(recorded, "run")
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": workload.name,
                "seed": seed,
                "columns": ["name", "start_s", "end_s", "parent", "cycle"],
                "spans": span_math.as_rows(recorded),
            }, handle)
    emit("trace", metrics=metrics, notes=notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)
    workload = workloads.by_name(args.workload, args.smoke)
    emit("start", workload=workload.name, n=workload.n,
         cycles=workload.cycles, workers=workloads.shard_workers())
    warm_up(workload, args.seed)
    if args.trace:
        trace(workload, args.seed, args.seconds, args.reps, args.smoke,
              args.spans_out)
    else:
        measure(workload, args.seed, args.seconds, args.reps)
    emit("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
