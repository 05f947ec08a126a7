"""Append one summary row per benchmark run to a JSONL history file.

``diff_bench.py`` gates each CI run against the previous one, but a
pairwise diff cannot show a slow drift. This script condenses the
current ``benchmarks/out/BENCH_*.json`` archives into a single JSON
line — run label, commit, and every workload's parameters and timing
keys — and appends it to a history file (one row per CI run). The CI
workflow keeps the history in the same actions-cache directory as the
diff baseline, so trends accumulate across runs and can be plotted
straight from the artifact.

Usage::

    python benchmarks/bench_history.py \
        --history .bench-baseline/BENCH_history.jsonl \
        [--bench-dir benchmarks/out] [--label "$GITHUB_RUN_NUMBER"] \
        [--commit "$GITHUB_SHA"]

Exit codes: 0 = row appended (or nothing to record), 2 = bad invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

#: keys copied verbatim from each BENCH_*.json into the history row —
#: workload parameters (to spot incomparable runs) plus every timing
SUMMARY_KEYS = ("n", "cycles", "aggregates", "cycles_per_epoch", "backend",
                "worker_sweep", "cpu_count")


def is_timing_key(key: str) -> bool:
    """Whether a JSON key holds a wall-clock measurement (mirrors
    ``diff_bench.is_timing_key``) or a number derived from two of one
    run's: ``speedup``, ``lone_worker_apply_ratio``."""
    return (key == "seconds" or key.endswith("_seconds")
            or key == "speedup" or key.endswith("_ratio"))


def is_memory_key(key: str) -> bool:
    """Whether a JSON key holds a memory measurement (the peak-RSS
    numbers ``_common.emit_json`` stamps on every archive) — kept in
    the history row so memory trends are plottable alongside timings."""
    return key.startswith("peak_rss") and key.endswith("_bytes")


def summarize(payload: dict) -> dict:
    """The history-worthy subset of one benchmark archive."""
    return {
        key: payload[key]
        for key in payload
        if key in SUMMARY_KEYS or is_timing_key(key) or is_memory_key(key)
    }


def build_row(bench_dir: Path, label: str, commit: str) -> dict:
    row = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "label": label,
        "commit": commit,
        "benches": {},
    }
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        with path.open() as handle:
            row["benches"][name] = summarize(json.load(handle))
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=Path, required=True,
                        help="JSONL file to append the row to")
    parser.add_argument("--bench-dir", type=Path,
                        default=Path(__file__).parent / "out",
                        help="directory holding the BENCH_*.json archives")
    parser.add_argument("--label", default=os.environ.get(
        "GITHUB_RUN_NUMBER", "local"),
        help="run label (default: $GITHUB_RUN_NUMBER or 'local')")
    parser.add_argument("--commit", default=os.environ.get(
        "GITHUB_SHA", "unknown"),
        help="commit id (default: $GITHUB_SHA or 'unknown')")
    args = parser.parse_args(argv)
    if not args.bench_dir.is_dir():
        print(f"bench dir {args.bench_dir} missing", file=sys.stderr)
        return 2
    row = build_row(args.bench_dir, args.label, args.commit)
    if not row["benches"]:
        print(f"no BENCH_*.json under {args.bench_dir}; nothing to record")
        return 0
    args.history.parent.mkdir(parents=True, exist_ok=True)
    with args.history.open("a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended run {row['label']} ({len(row['benches'])} benches) "
          f"to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
