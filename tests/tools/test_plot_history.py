"""Tests for ``tools/plot_history.py`` (the CI trend renderer).

The tool is stdlib-only (CI runners have no plotting stack), so the
tests exercise it end-to-end: JSONL in, well-formed SVG out, with the
timing and memory panels populated from the same keys that
``diff_bench.py --append`` summarizes.
"""

import importlib.util
import json
import xml.dom.minidom
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "plot_history.py"

spec = importlib.util.spec_from_file_location("plot_history", TOOL)
plot_history = importlib.util.module_from_spec(spec)
spec.loader.exec_module(plot_history)

import diff_bench  # noqa: E402  (plot_history put benchmarks/ on sys.path)


def history_row(label, benches):
    return {
        "timestamp": "2026-08-08T00:00:00Z",
        "label": label,
        "commit": "abc1234",
        "benches": benches,
    }


def write_history(path, rows):
    path.write_text(
        "".join(json.dumps(row) + "\n" for row in rows)
    )


@pytest.fixture
def history_file(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    write_history(path, [
        history_row("run1", {
            "scale": {"n": 100000, "seconds": 0.25,
                      "reference_seconds": 2.4,
                      "peak_rss_bytes": 400_000_000},
            "shard": {"n": 1000000, "vectorized_seconds": 1.3,
                      "sharded_w1_seconds": 1.4,
                      "peak_rss_bytes": 410_000_000,
                      "peak_rss_children_bytes": 230_000_000},
        }),
        history_row("run2", {
            "scale": {"n": 100000, "seconds": 0.24,
                      "reference_seconds": 2.5,
                      "peak_rss_bytes": 402_000_000},
            # shard bench dropped this run: series must stay sparse
        }),
    ])
    return path


class TestRender:
    def test_writes_wellformed_svg_with_both_panels(self, history_file,
                                                    tmp_path):
        out = tmp_path / "history.svg"
        assert plot_history.main(
            ["--history", str(history_file), "--out", str(out)]
        ) == 0
        svg = out.read_text()
        xml.dom.minidom.parseString(svg)  # raises on malformed output
        assert "wall-clock timings" in svg
        assert "peak RSS" in svg
        # multi-point series draw polylines, and every series is
        # legended by its bench.key name
        assert "<polyline" in svg
        assert "scale.seconds" in svg
        assert "shard.vectorized_seconds" in svg
        assert "shard.peak_rss_bytes" in svg

    def test_single_run_renders_markers_without_polyline(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(path, [history_row("only", {
            "scale": {"seconds": 0.25, "peak_rss_bytes": 1_000_000},
        })])
        out = tmp_path / "single.svg"
        assert plot_history.main(
            ["--history", str(path), "--out", str(out)]
        ) == 0
        svg = out.read_text()
        xml.dom.minidom.parseString(svg)
        assert "<circle" in svg

    def test_last_limits_plotted_runs(self, history_file, tmp_path):
        out = tmp_path / "last.svg"
        assert plot_history.main(
            ["--history", str(history_file), "--out", str(out),
             "--last", "1"]
        ) == 0
        assert "run1" not in out.read_text()

    def test_real_repo_history_renders(self, tmp_path):
        """The git-tracked history, plus a row ``diff_bench.py --append``
        writes, must stay renderable."""
        history = tmp_path / "BENCH_history.jsonl"
        history.write_text(
            (TOOL.parent.parent / "BENCH_history.jsonl").read_text())
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "BENCH_x.json").write_text('{"seconds": 0.5}')
        assert diff_bench.main(
            ["--baseline-dir", str(tmp_path / "none"), "--current-dir",
             str(tmp_path / "out"), "--append", str(history),
             "--label", "appended-run"]
        ) == 0
        out = tmp_path / "repo.svg"
        assert plot_history.main(
            ["--history", str(history), "--out", str(out)]
        ) == 0
        xml.dom.minidom.parseString(out.read_text())
        assert "appended-run" in out.read_text()  # the new row's x tick


class TestEdgeCases:
    def test_missing_history_is_an_error(self, tmp_path):
        assert plot_history.main(
            ["--history", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "x.svg")]
        ) == 2

    def test_unplottable_history_writes_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_history(path, [history_row("r", {"scale": {"n": 1000}})])
        out = tmp_path / "none.svg"
        assert plot_history.main(
            ["--history", str(path), "--out", str(out)]
        ) == 0
        assert not out.exists()

    def test_timing_and_memory_key_filters(self):
        assert plot_history.is_timing_key("seconds")
        assert plot_history.is_timing_key("vectorized_seconds")
        assert not plot_history.is_timing_key("speedup")
        assert not plot_history.is_timing_key("n")
        assert plot_history.is_memory_key("peak_rss_bytes")
        assert plot_history.is_memory_key("peak_rss_children_bytes")
        assert not plot_history.is_memory_key("rss_budget_bytes")
