"""Smoke tests: every shipped example must run and print sane output."""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    """Execute an example script in-process and capture stdout."""
    buffer = io.StringIO()
    argv = sys.argv
    sys.argv = [name]
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = argv
    return buffer.getvalue()


def check_quickstart(out):
    assert "true average" in out
    assert "worst node error" in out


def check_membership_stack(out):
    # the printed empirical rate is in the random-overlay ballpark
    line = [l for l in out.splitlines()
            if "empirical per-cycle reduction" in l][0]
    rate = float(line.split(":")[1])
    assert 0.25 < rate < 0.40


def check_adaptive_monitoring(out):
    assert "proactive aggregation" in out
    assert "300 nodes" in out


def check_grid_monitoring(out):
    # max/min are floods: node 0 holds the exact extreme
    for name in ("max capability", "min capability"):
        line = [l for l in out.splitlines() if l.startswith(name)][0]
        estimate, truth, error = line[len(name):].split()
        assert estimate == truth
        assert error == "0.00%"


def check_churn_robustness(out):
    lines = out.splitlines()
    header = f"{'loss p':>8} {'|mean drift| after 20 cycles':>30}"
    rows = lines[lines.index(header) + 1:][:3]
    drift = {float(p): float(d) for p, d in (row.split() for row in rows)}
    assert drift[0.0] == 0.0  # lossless exchanges conserve mass
    assert drift[0.3] > 0.0  # lost replies leak it


def check_size_estimation(out):
    assert "mean relative error across epochs" in out


CHECKS = {
    "quickstart.py": check_quickstart,
    "membership_stack.py": check_membership_stack,
    "adaptive_monitoring.py": check_adaptive_monitoring,
    "grid_monitoring.py": check_grid_monitoring,
    "churn_robustness.py": check_churn_robustness,
    "size_estimation.py": check_size_estimation,
}


@pytest.mark.parametrize(
    "name", sorted(path.name for path in EXAMPLES.glob("*.py"))
)
def test_example(name):
    out = run_example(name)
    assert out.strip()
    CHECKS.get(name, lambda out: None)(out)


def test_checked_examples_exist():
    assert set(CHECKS) <= {path.name for path in EXAMPLES.glob("*.py")}
