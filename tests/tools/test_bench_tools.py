"""Tests for ``benchmarks/diff_bench.py`` (the timing gate and history
writer) and a guard that every benchmark driver is a script CI runs."""

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "diff_bench", REPO / "benchmarks" / "diff_bench.py")
diff_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_bench)

BASE = {"n": 1000, "cycles": 5, "seconds": 1.0, "tiny_seconds": 0.05,
        "speedup": 4.0, "peak_rss_bytes": 100, "note": "not kept"}


def run(tmp_path, current, baseline=BASE, *extra):
    for name, payload in (("base", baseline), ("cur", {**BASE, **current})):
        (tmp_path / name).mkdir(exist_ok=True)
        if payload is not None:
            (tmp_path / name / "BENCH_x.json").write_text(json.dumps(payload))
    return diff_bench.main(["--baseline-dir", str(tmp_path / "base"),
                            "--current-dir", str(tmp_path / "cur"), *extra])


@pytest.mark.parametrize("current, baseline, code", [
    ({"seconds": 1.3}, BASE, 1),  # 30 % slower than a 25 % tolerance
    ({"seconds": 1.2}, BASE, 0),
    ({"n": 2000, "seconds": 9.0}, BASE, 0),  # different workloads
    ({"seconds": 9.0}, None, 0),  # first run: no baseline
])
def test_exit_codes(tmp_path, current, baseline, code):
    assert run(tmp_path, current, baseline) == code


def test_timing_under_the_noise_floor_is_reported_not_gated(tmp_path,
                                                            capsys):
    assert run(tmp_path, {"tiny_seconds": 0.5}, BASE,
               "--min-seconds", "0.1") == 0
    assert "tiny_seconds: 0.0500s -> 0.5000s (10.00x) ignored" \
        in capsys.readouterr().out


def test_append_writes_one_summary_row(tmp_path):
    history = tmp_path / "history.jsonl"
    extra = ("--append", str(history), "--label", "r1", "--commit", "abc")
    assert run(tmp_path, {"seconds": 1.1}, BASE, *extra) == 0
    [row] = [json.loads(line) for line in history.read_text().splitlines()]
    assert (row["label"], row["commit"]) == ("r1", "abc")
    assert row["benches"] == {"x": {
        "n": 1000, "cycles": 5, "seconds": 1.1, "tiny_seconds": 0.05,
        "speedup": 4.0, "peak_rss_bytes": 100}}
    # a regressing run appends nothing
    assert run(tmp_path, {"seconds": 2.0}, BASE, *extra) == 1
    assert len(history.read_text().splitlines()) == 1


def test_every_driver_is_a_script_a_workflow_runs():
    workflows = "".join(
        (REPO / ".github" / "workflows" / name).read_text()
        for name in ("ci.yml", "nightly.yml"))
    invoked = set(re.findall(r"python3? benchmarks/(bench_\w+)\.py",
                             workflows))
    drivers = sorted((REPO / "benchmarks").glob("bench_*.py"))
    assert drivers
    for path in drivers:
        tree = ast.parse(path.read_text())
        assert any(isinstance(node, ast.FunctionDef) and node.name == "main"
                   for node in tree.body), path.name
        assert path.stem in invoked, path.name
