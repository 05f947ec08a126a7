"""Render the benchmark-history trend as a standalone SVG.

``benchmarks/diff_bench.py --append`` accumulates one JSON line per CI
run (every workload's timing keys plus the peak-RSS numbers stamped by
``_common.emit_json``); the same tool gates each run pairwise, but
only a trend plot shows a slow drift. This script reads the JSONL
history and writes a two-panel SVG — wall-clock timings on top,
peak RSS below, one polyline per ``bench.key`` series, log-scaled so
minute-long paper-scale runs and sub-second smoke timings share an
axis. It draws through ``repro.analysis.reporting.render_line_chart``,
the figure writer the robustness figures share; the writer is standard
library only, since CI runners have no plotting stack and none is
needed for polylines.

Usage::

    python tools/plot_history.py [--history BENCH_history.jsonl]
        [--out benchmarks/out/history.svg] [--last 50]

Exit codes: 0 = SVG written (or empty history, nothing to plot),
2 = bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from diff_bench import is_memory_key, is_timing_key  # noqa: E402
from repro.analysis.reporting import (  # noqa: E402
    PALETTE,
    Panel,
    Series,
    render_line_chart,
)


def load_rows(path: Path):
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def collect_series(rows, key_filter):
    """{'bench.key': [(run_index, value), ...]} for keys passing the
    filter — runs may add or drop benches, so series are sparse."""
    series = {}
    for index, row in enumerate(rows):
        for bench, payload in sorted(row.get("benches", {}).items()):
            for key, value in sorted(payload.items()):
                if key_filter(key) and isinstance(value, (int, float)) \
                        and value > 0:
                    series.setdefault(f"{bench}.{key}", []).append(
                        (index, float(value))
                    )
    return series


def format_value(value: float, unit: str) -> str:
    if unit == "bytes":
        for threshold, suffix in ((1024**3, "GiB"), (1024**2, "MiB"),
                                  (1024, "KiB")):
            if value >= threshold:
                return f"{value / threshold:g} {suffix}"
        return f"{value:g} B"
    if value >= 60:
        return f"{value / 60:g} min"
    if value < 0.1:
        return f"{value * 1000:g} ms"
    return f"{value:g} s"


def render_svg(rows) -> str:
    """Both panels as one SVG document ("" when nothing is plottable)."""
    ticks = [(index, str(row.get("label", index)))
             for index, row in enumerate(rows)]
    panels = []
    for title, unit, key_filter in (
        ("wall-clock timings", "seconds", is_timing_key),
        ("peak RSS", "bytes", is_memory_key),
    ):
        series = collect_series(rows, key_filter)
        if not series:
            continue
        panels.append(Panel(
            title,
            [Series(name, points, PALETTE[index % len(PALETTE)])
             for index, (name, points) in enumerate(sorted(series.items()))],
            log_y=True,
            x_ticks=ticks,
            y_format=lambda value, unit=unit: format_value(value, unit),
        ))
    if not panels:
        return ""
    return render_line_chart(panels, legend_width=260) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=Path,
                        default=REPO_ROOT / "BENCH_history.jsonl",
                        help="JSONL history written by diff_bench.py "
                             "--append")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "benchmarks" / "out"
                        / "history.svg",
                        help="SVG file to write")
    parser.add_argument("--last", type=int, default=50,
                        help="plot at most the last K runs (default 50)")
    args = parser.parse_args(argv)
    if args.last < 1:
        print("--last must be >= 1", file=sys.stderr)
        return 2
    if not args.history.exists():
        print(f"history file {args.history} missing", file=sys.stderr)
        return 2
    rows = load_rows(args.history)[-args.last:]
    svg = render_svg(rows)
    if not svg:
        print(f"no plottable series in {args.history}; nothing to render")
        return 0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(svg)
    print(f"rendered {len(rows)} run(s) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
