"""Shared infrastructure for the benchmark drivers.

Every ``bench_*.py`` driver is a script: ``python benchmarks/bench_<name>.py
[--n N ...]`` times one workload at acceptance scale by default, checks
its bitwise and speedup claims, prints a report and archives it under
``benchmarks/out/``. The paper's figure and table claims are asserted
by the test suite instead (``tests/statistical/test_paper_claims.py``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"
REPO_ROOT = Path(__file__).resolve().parent.parent


def emit(name: str, text: str) -> None:
    """Print a report and archive it as ``benchmarks/out/<name>.txt``."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(text)


def peak_rss_bytes() -> dict:
    """Peak resident-set sizes of this process and its (reaped)
    children, in bytes — the sharded backend's workers land in the
    children number. Empty where :mod:`resource` is unavailable.

    ``ru_maxrss`` is a process-lifetime high-water mark, so archives
    are attributable to one workload because each benchmark runs in
    its own process.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return {}
    # ru_maxrss is KiB on Linux, bytes on macOS
    unit = 1 if sys.platform == "darwin" else 1024
    return {
        "peak_rss_bytes": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss * unit,
        "peak_rss_children_bytes": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss * unit,
    }


def emit_json(name: str, payload: dict, *, archive: bool = True) -> Path:
    """Write a machine-readable benchmark result as ``BENCH_<name>.json``.

    The file always lands under ``benchmarks/out/`` (what CI uploads
    and ``diff_bench.py`` compares). With ``archive=True`` it is *also*
    written to the repository root — the git-tracked copy documenting
    the acceptance-scale numbers. Callers pass ``archive=False`` for
    smoke/reduced workloads so a quick local run never clobbers the
    committed paper-scale archive. Every archive also carries the
    run's peak-RSS numbers (see :func:`peak_rss_bytes`) so memory
    trends accumulate in ``diff_bench.py --append``'s history
    alongside the timings.
    Returns the ``benchmarks/out/`` path."""
    OUT_DIR.mkdir(exist_ok=True)
    payload = {**peak_rss_bytes(), **payload}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = OUT_DIR / f"BENCH_{name}.json"
    path.write_text(text)
    if archive:
        (REPO_ROOT / f"BENCH_{name}.json").write_text(text)
    return path
