"""The pinned benchmark of the gossip stack.

    python3 benchmarks/perf/run.py                      # all six workloads
    python3 benchmarks/perf/run.py --trace              # … per-layer table
    python3 benchmarks/perf/run.py --repeat-check       # two sets must agree
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --workload lossy_retry --seed 7 \\
        --seconds 15 --trace 0                          # one contract run

Every workload runs in a subprocess of its own (``worker.py``), one
after the other; this file is the only load generator. It enforces the
per-repetition deadline, audits what the subprocess left behind, puts
every repetition through the validity gate, and prints every metric by
name with its unit. With exactly one ``--workload`` the last line of
output is the one-object result ``BENCHMARK.json``'s contract asks for.

End-to-end numbers always come from an untraced run; ``--trace`` is a
separate run whose spans are recorded by this directory's own wrappers.
A timing is reported as its fastest repetition, scaled by how fast the
host ran the worker's calibration kernel meanwhile (:func:`gate`).
See README.md for the metric and workload dictionary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: a repetition that has not reported after this long is killed and
#: counted as failed
REP_DEADLINE_S = 60.0
#: … and so is a whole workload subprocess, so one contract run always
#: ends inside the contract's 180 s
WORKLOAD_DEADLINE_S = 165.0
#: the seed to confirm a claimed gain on; never use it while writing
#: the change (see README.md)
HELD_OUT_SEED = 31337
#: what the worker's calibration kernel takes on the host this was
#: written on (2.1 GHz Xeon guest, calm phase). Times are reported as
#: they would read on a host that runs the kernel in exactly this long,
#: so that a host running a third slower for some minutes — this one
#: does — reads the same
REFERENCE_CALIBRATION_S = 0.020

END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- host header ---------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_header(seed: int) -> Dict[str, object]:
    cores = len(os.sched_getaffinity(0))
    return {
        "cores": cores,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "shard_workers": min(2, cores),
        "seed": seed,
        "commit": commit(),
    }


#: header fields two result files must share to be comparable; the
#: commit is what a comparison is usually about
COMPARABLE = ("cores", "cpu", "python", "numpy", "shard_workers", "seed")


# -- one workload subprocess ---------------------------------------------


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def read_events(proc: subprocess.Popen, on_event) -> Optional[str]:
    """Feed the worker's JSON lines to ``on_event`` until it closes its
    output. Returns why reading stopped early, or ``None``."""
    fd = proc.stdout.fileno()
    buffer = b""
    started = last = time.monotonic()
    while True:
        now = time.monotonic()
        wait = min(last + REP_DEADLINE_S, started + WORKLOAD_DEADLINE_S) - now
        if wait <= 0:
            return (
                f"no report within {REP_DEADLINE_S:.0f} s"
                if now - last >= REP_DEADLINE_S
                else f"workload exceeded {WORKLOAD_DEADLINE_S:.0f} s"
            )
        ready, _, _ = select.select([fd], [], [], wait)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return None
        buffer += chunk
        *lines, buffer = buffer.split(b"\n")
        for line in lines:
            if line.strip():
                last = time.monotonic()
                on_event(json.loads(line))


def run_worker(name: str, args) -> Dict[str, object]:
    """Run one workload subprocess to the end (or its deadline) and
    return everything it reported plus the leak audit."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--trace", str(args.trace),
    ]
    command += (
        ["--reps", str(args.reps)] if args.reps
        else ["--seconds", str(args.seconds)]
    )
    if args.smoke:
        command.append("--smoke")
    if args.trace and args.out:
        command += ["--spans-out", str(Path(args.out) / f"spans-{name}.json")]
    events: List[dict] = []
    shm_before = shm_entries()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stopped = read_events(proc, events.append)
    finally:
        if proc.poll() is None and (stopped or sys.exc_info()[0]):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.stdout.close()
        code = proc.wait()
    leaks = []
    # helpers of the worker (multiprocessing's resource tracker) exit a
    # moment after it; anything still there after the grace is a leak
    grace = time.monotonic() + 3.0
    while group_alive(proc.pid) and time.monotonic() < grace:
        time.sleep(0.05)
    if group_alive(proc.pid):
        leaks.append("child processes outlived the workload")
        os.killpg(proc.pid, signal.SIGKILL)
        while group_alive(proc.pid):
            time.sleep(0.05)
    leaked = sorted(shm_entries() - shm_before)
    if leaked:
        leaks.append(f"/dev/shm segments left behind: {leaked}")
        for entry in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", entry))
            except OSError:
                pass
    return {"events": events, "stopped": stopped, "exit_code": code,
            "leaks": leaks}


# -- validity gate and aggregation ---------------------------------------


def summary(values: List[float], value: Optional[float] = None
            ) -> Dict[str, object]:
    """The reported ``value`` of a metric (the median of its readings
    unless given) beside the readings as they were taken."""
    return {
        "value": statistics.median(values) if value is None else value,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": len(values),
        "values": values,
    }


def gate(name: str, raw: Dict[str, object]) -> Dict[str, object]:
    """Put every repetition through the validity gate and reduce the
    survivors' readings to one value per metric."""
    events = raw["events"]

    def of_kind(kind: str) -> List[dict]:
        return [e for e in events if e["event"] == kind]

    begun = [e["index"] for e in of_kind("begin")]
    reps = of_kind("rep")
    measured = [r for r in reps if "digest" in r]
    reference = next((e["digest"] for e in of_kind("reference")), None)
    # with no independent reference, repetitions must at least agree
    expected = reference or (measured[0]["digest"] if measured else None)
    problems: List[str] = []
    failed = 0
    for rep in reps:
        found = list(rep["problems"])
        if "digest" in rep and rep["digest"] != expected:
            found.append("final-state digest differs from the reference")
        if measured and rep.get("counts", measured[0]["counts"]) != (
            measured[0]["counts"]
        ):
            found.append("exact counts differ from the first repetition")
        failed += bool(found)
        problems += [f"rep {rep['index']}: {p}" for p in found]
    for index in sorted(set(begun) - {r["index"] for r in reps}):
        failed += 1
        problems.append(f"rep {index}: {raw['stopped'] or 'the worker died'}")
    if raw["exit_code"] != 0 and not problems:
        failed += 1
        problems.append(f"worker exited with code {raw['exit_code']}")
    if raw["leaks"]:
        failed += 1
        problems += raw["leaks"]
    attempted = max(len(begun), 1)
    start = next(iter(of_kind("start")), {})
    result: Dict[str, object] = {
        "workload": name,
        "n": start.get("n"),
        "cycles": start.get("cycles"),
        "workers": start.get("workers"),
        "attempted": attempted,
        "failed": min(failed, attempted),
        "problems": problems,
        "digest": expected,
        "reference": "independent run" if reference else "first repetition",
    }
    if measured:
        result["rel_error"] = measured[0]["rel_error"]
        result["counts"] = measured[0]["counts"]
    for trace in of_kind("trace"):
        # a traced run's timings include the tracing: it reports the
        # per-layer metrics and leaves end-to-end numbers to the
        # untraced run
        result["per_layer"] = trace["metrics"]
        result["problems"] += trace["notes"]
        return result
    # only an untraced run times the calibration kernel
    timed = [r for r in measured if "calibration_s" in r]
    if timed:
        # the neighbours on this host only ever slow a repetition down,
        # so the fastest reading of each timing is the one with least
        # of them in it; the calibration kernel's fastest reading says
        # how fast the host itself was running meanwhile
        calibration_s = min(r["calibration_s"] for r in timed)
        scale = REFERENCE_CALIBRATION_S / calibration_s
        result["host"] = {"calibration_s": calibration_s, "scale": scale}

        def fastest(key: str) -> Dict[str, object]:
            values = [r[key] for r in timed]
            return summary(values, min(values) * scale)

        rates = [r["exchanges"] / r["run_s"] for r in timed]
        result["end_to_end"] = {
            "setup_s": fastest("setup_s"),
            "run_s": fastest("run_s"),
            "cpu_s": fastest("cpu_s"),
            "exchanges_per_s": summary(rates, max(rates) / scale),
            "convergence_factor": summary(
                [r["convergence_factor"] for r in timed]
            ),
        }
        for rss in of_kind("rss"):
            result["end_to_end"]["peak_rss_mib"] = summary(
                [rss["peak_rss_mib"]]
            )
    return result


# -- printing ------------------------------------------------------------


def metric_lines(result: Dict[str, object]) -> List[str]:
    lines = []
    for name, declared in END_TO_END.items():
        stats = result.get("end_to_end", {}).get(name)
        if stats is None:
            continue
        lines.append(
            f"  {name:<22}{stats['value']:>16.6g} {declared['unit']:<6}"
            f" read: median {stats['median']:.6g}  min {stats['min']:.6g}"
            f"  max {stats['max']:.6g}  n={stats['samples']}"
        )
    for name, declared in PER_LAYER.items():
        value = result.get("per_layer", {}).get(name)
        if value is not None:
            lines.append(f"  {name:<28}{value:>16.6g} {declared['unit']}")
    return lines


def print_result(result: Dict[str, object]) -> None:
    status = "ok" if not result["failed"] else "FAILED"
    print(
        f"{result['workload']}: {status}  (N={result['n']}, "
        f"cycles={result['cycles']}, reps failed {result['failed']}/"
        f"{result['attempted']}, digest {str(result['digest'])[:12]} vs "
        f"{result['reference']})"
    )
    if "host" in result:
        print(f"  host: calibration {result['host']['calibration_s']:.6g} s, "
              f"timings scaled by {result['host']['scale']:.4f}")
    for line in metric_lines(result):
        print(line)
    if "rel_error" in result:
        print(f"  {'rel_error':<22}{result['rel_error']:>16.6g} ratio"
              f"  (gated, same under one seed)")
    for problem in result["problems"]:
        print(f"  ! {problem}")
    sys.stdout.flush()


def contract_line(result: Dict[str, object], trace: int) -> Optional[str]:
    """The one-object result of a single-workload run, or ``None`` when
    the run produced no numbers to report."""
    if trace:
        values = result.get("per_layer")
        declared = PER_LAYER
    else:
        values = {
            name: stats["value"]
            for name, stats in result.get("end_to_end", {}).items()
        }
        declared = END_TO_END
    if not values or set(values) != set(declared):
        return None
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": declared[name]["unit"]}
            for name in declared
        },
    })


# -- sets of runs --------------------------------------------------------


def run_set(names: List[str], args) -> Dict[str, object]:
    results = []
    for name in names:
        result = gate(name, run_worker(name, args))
        print_result(result)
        results.append(result)
    return {"header": host_header(args.seed), "trace": args.trace,
            "results": results}


def write_set(run: Dict[str, object], args, label: str = "") -> None:
    if not args.out:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "results"
    path = out / f"{kind}-seed{args.seed}{label}.json"
    path.write_text(json.dumps(run, indent=1) + "\n")
    print(f"wrote {path}")


def worse_by(declared: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``
    (negative when it is better)."""
    change = (new - old) / abs(old) if old else 0.0
    return change if declared["better"] == "lower" else -change


def compare_sets(old: dict, new: dict, *, symmetric: bool) -> List[str]:
    """Every end-to-end metric of every workload, ``new`` against
    ``old``. Returns the lines describing pairs outside their bound;
    ``symmetric`` also flags a metric that got *better* by more than
    the bound (two runs of one commit should simply agree)."""
    offending = []
    new_by_name = {r["workload"]: r for r in new["results"]}
    for before in old["results"]:
        after = new_by_name.get(before["workload"])
        if after is None:
            continue
        name = before["workload"]
        for metric, declared in END_TO_END.items():
            a = before.get("end_to_end", {}).get(metric, {}).get("value")
            b = after.get("end_to_end", {}).get(metric, {}).get("value")
            if a is None or b is None:
                offending.append(f"{name} {metric}: missing")
                continue
            change = worse_by(declared, a, b)
            outside = (
                abs(change) > declared["bound"] if symmetric
                else change > declared["bound"]
            )
            print(f"  {name:<16}{metric:<20}{a:>14.6g} -> {b:<14.6g}"
                  f"{abs(change):>6.1%} {'worse ' if change > 0 else 'better'}"
                  f"  (bound {declared['bound']:.0%})"
                  f"{'  <-- outside' if outside else ''}")
            if outside:
                offending.append(
                    f"{name} {metric}: {a:.6g} -> {b:.6g} "
                    f"({change:+.1%}, bound {declared['bound']:.0%})"
                )
        for key in ("digest", "counts", "rel_error", "failed"):
            if before.get(key) != after.get(key) and (
                symmetric or key == "failed"
            ):
                offending.append(
                    f"{name} {key}: {before.get(key)!r} != {after.get(key)!r}"
                )
    return offending


def compare_files(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    differing = [
        f"{key}: {old['header'].get(key)!r} vs {new['header'].get(key)!r}"
        for key in COMPARABLE
        if old["header"].get(key) != new["header"].get(key)
    ]
    if differing:
        print("refusing to compare: the two files were not measured on "
              "the same host, toolchain and seed")
        for line in differing:
            print(f"  {line}")
        return 2
    print(f"{old['header']['commit'][:12]} -> {new['header']['commit'][:12]}")
    offending = compare_sets(old, new, symmetric=False)
    for line in offending:
        print(f"REGRESSION {line}")
    return 1 if offending else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="how long each workload measures")
    parser.add_argument("--reps", type=int, default=0,
                        help="fixed repetition count instead of --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at N/50 (plumbing check)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the set twice; the two must agree")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result files")
    parser.add_argument("--out", default=None,
                        help="directory for result and span files "
                             "(default: benchmarks/perf/out for a full set)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = args.workload or WORKLOADS
    single = len(names) == 1
    if args.out is None and not single:
        args.out = str(HERE / "out")
    if args.seed == HELD_OUT_SEED:
        print(f"note: {HELD_OUT_SEED} is the held-out seed — for confirming "
              f"a claim, not for developing one", file=sys.stderr)

    first = run_set(names, args)
    write_set(first, args, "-a" if args.repeat_check else "")
    failed = sum(r["failed"] for r in first["results"])
    if args.repeat_check:
        second = run_set(names, args)
        write_set(second, args, "-b")
        failed += sum(r["failed"] for r in second["results"])
        offending = compare_sets(first, second, symmetric=True)
        for line in offending:
            print(f"DISAGREE {line}")
        print("repeat check:",
              "every metric agrees within its bound" if not offending
              else f"{len(offending)} pairs disagree")
        return 1 if offending or failed else 0
    if single:
        line = contract_line(first["results"][0], args.trace)
        if line is None:
            print("no result: the run produced no complete set of metrics",
                  file=sys.stderr)
            return 1
        print(line)
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
