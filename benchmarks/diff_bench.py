"""Diff two benchmark JSON archives, fail on timing regressions, and
optionally append the run to a JSONL history.

The CI workflow archives each run's ``BENCH_*.json`` (the
machine-readable outputs of :mod:`bench_scale`, :mod:`bench_churn`, …)
and restores the previous run's copy from the actions cache. This
script compares the two:

* every key ending in ``_seconds`` (plus a bare ``seconds`` key) is a
  wall-clock measurement; the run regresses if
  ``current > baseline * (1 + tolerance)`` (default tolerance 25 %);
* measurements whose baseline is below ``--min-seconds`` are reported
  but never gated — sub-100 ms smoke timings vary far more than any
  honest tolerance between CI runners;
* runs are only comparable when their workload parameters match —
  mismatched ``n``/``cycles`` (e.g. a smoke run against a paper-scale
  archive) skip the diff with exit code 0, as does a missing baseline
  (the first run ever, or an expired cache).

A pairwise diff cannot show a slow drift, so ``--append HISTORY``
condenses the current archives into one JSON line — run label, commit,
and every workload's parameters, timings, derived ratios (``speedup``,
``*_ratio``) and peak-RSS numbers — and appends it to a history file
that ``tools/plot_history.py`` renders. A run that regresses appends
nothing.

Exit codes: 0 = ok/skip, 1 = regression beyond tolerance, 2 = bad
invocation.

Usage::

    python benchmarks/diff_bench.py --baseline prev/BENCH_scale.json \
        --current BENCH_scale.json [--tolerance 0.25]
    python benchmarks/diff_bench.py --baseline-dir .bench-baseline \
        --current-dir benchmarks/out \
        [--append .bench-baseline/BENCH_history.jsonl] \
        [--label "$GITHUB_RUN_NUMBER"] [--commit "$GITHUB_SHA"]

The directory form diffs every ``BENCH_*.json`` of ``--current-dir``
against its namesake in ``--baseline-dir`` under the same rules (an
archive with no baseline is a first run) and fails if any regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

#: keys that must match for two runs to be comparable, and that every
#: history row keeps — cpu_count guards the sharded sweep, whose
#: timings shift with the runner's core count even on identical code
PARAM_KEYS = ("n", "cycles", "aggregates", "cycles_per_epoch", "backend",
              "worker_sweep", "cpu_count")


def is_timing_key(key: str) -> bool:
    """Whether a JSON key holds a wall-clock measurement."""
    return key == "seconds" or key.endswith("_seconds")


def is_memory_key(key: str) -> bool:
    """Whether a JSON key holds a memory measurement (the peak-RSS
    numbers ``_common.emit_json`` stamps on every archive)."""
    return key.startswith("peak_rss") and key.endswith("_bytes")


def load(path: Path):
    with path.open() as handle:
        return json.load(handle)


def diff(baseline: dict, current: dict, tolerance: float,
         min_seconds: float = 0.0):
    """Compare two benchmark payloads.

    Returns ``(comparable, regressions, lines)``: whether the workloads
    matched, the list of regressed keys, and human-readable report
    lines. Timing keys with a baseline under ``min_seconds`` are
    reported but never counted as regressions (too noisy to gate on).
    """
    lines = []
    for key in PARAM_KEYS:
        if key in baseline or key in current:
            if baseline.get(key) != current.get(key):
                lines.append(
                    f"workload parameter {key!r} differs "
                    f"(baseline {baseline.get(key)!r}, "
                    f"current {current.get(key)!r}); runs not comparable"
                )
                return False, [], lines
    regressions = []
    for key in sorted(current):
        if not is_timing_key(key):
            continue
        if key not in baseline:
            lines.append(f"{key}: {current[key]:.4f}s (no baseline)")
            continue
        base, cur = float(baseline[key]), float(current[key])
        if base <= 0.0:
            continue
        ratio = cur / base
        verdict = "ok"
        if base < min_seconds:
            verdict = f"ignored (baseline < {min_seconds}s, too noisy)"
        elif ratio > 1.0 + tolerance:
            verdict = f"REGRESSION (> {tolerance:.0%} slower)"
            regressions.append(key)
        elif ratio < 1.0 - tolerance:
            verdict = "improved"
        lines.append(
            f"{key}: {base:.4f}s -> {cur:.4f}s ({ratio:.2f}x) {verdict}"
        )
    return True, regressions, lines


def diff_files(baseline: Path, current: Path, tolerance: float,
               min_seconds: float) -> int:
    """Diff one archive pair and print the report; returns the exit
    code (0 = ok, not comparable or no baseline; 1 = regression)."""
    if not baseline.exists():
        print(f"no baseline at {baseline}; first run, nothing to diff")
        return 0
    comparable, regressions, lines = diff(
        load(baseline), load(current), tolerance, min_seconds
    )
    for line in lines:
        print(line)
    if not comparable:
        return 0
    if regressions:
        print(f"{len(regressions)} timing regression(s): "
              f"{', '.join(regressions)}", file=sys.stderr)
        return 1
    print("no timing regressions")
    return 0


def summarize(payload: dict) -> dict:
    """The history-worthy subset of one benchmark archive: workload
    parameters, timings, ratios derived from two of one run's timings,
    and peak RSS."""
    return {
        key: value for key, value in payload.items()
        if key in PARAM_KEYS or is_timing_key(key) or is_memory_key(key)
        or key == "speedup" or key.endswith("_ratio")
    }


def history_row(archives, label: str, commit: str) -> dict:
    """One history line summarizing the ``BENCH_<name>.json`` paths."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "label": label,
        "commit": commit,
        "benches": {
            path.stem[len("BENCH_"):]: summarize(load(path))
            for path in archives
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path,
                        help="previous run's BENCH_*.json")
    parser.add_argument("--current", type=Path,
                        help="this run's BENCH_*.json")
    parser.add_argument("--baseline-dir", type=Path,
                        help="directory of the previous run's archives")
    parser.add_argument("--current-dir", type=Path,
                        help="directory of this run's archives")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown fraction (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=0.0,
                        help="ignore timings whose baseline is below "
                             "this (noise floor for smoke runs)")
    parser.add_argument("--append", type=Path, metavar="HISTORY",
                        help="JSONL file to append this run's summary "
                             "row to when nothing regressed")
    parser.add_argument("--label", default=os.environ.get(
        "GITHUB_RUN_NUMBER", "local"),
        help="history run label (default: $GITHUB_RUN_NUMBER or 'local')")
    parser.add_argument("--commit", default=os.environ.get(
        "GITHUB_SHA", "unknown"),
        help="history commit id (default: $GITHUB_SHA or 'unknown')")
    args = parser.parse_args(argv)
    if args.tolerance <= 0:
        print("tolerance must be positive", file=sys.stderr)
        return 2
    if args.baseline_dir is not None and args.current_dir is not None:
        pairs = [
            (args.baseline_dir / current.name, current)
            for current in sorted(args.current_dir.glob("BENCH_*.json"))
        ]
        if not pairs:
            print(f"no BENCH_*.json archives in {args.current_dir}",
                  file=sys.stderr)
            return 2
    elif args.baseline is not None and args.current is not None:
        if not args.current.exists():
            print(f"current archive {args.current} missing",
                  file=sys.stderr)
            return 2
        pairs = [(args.baseline, args.current)]
    else:
        print("need --baseline and --current, or --baseline-dir and "
              "--current-dir", file=sys.stderr)
        return 2
    worst = 0
    for baseline, current in pairs:
        if len(pairs) > 1:
            print(f"== {current.name}")
        worst = max(worst, diff_files(
            baseline, current, args.tolerance, args.min_seconds
        ))
    if args.append is not None and worst == 0:
        row = history_row([current for _, current in pairs],
                          args.label, args.commit)
        args.append.parent.mkdir(parents=True, exist_ok=True)
        with args.append.open("a") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"appended run {row['label']} ({len(row['benches'])} "
              f"benches) to {args.append}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
