"""The adversary and message-fault sweeps, pinned end to end.

The payload digests below were recorded before the sweeps were
rebuilt on :class:`~repro.analysis.runner.ScenarioGrid`; every cell
must keep its seed stream, so any change to cell order, seed folding
or row reduction moves a digest. The CLI tests run both figures and
parse the SVG they write.
"""

import dataclasses
import hashlib
import json
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    Axis,
    MessageFaultSweep,
    RobustnessSweep,
    ScenarioGrid,
)
from repro.cli import build_parser, main
from repro.kernel import Scenario, run_scenario
from repro.topology import CompleteTopology

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _bench(name):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(BENCHMARKS))


ROBUSTNESS_QUICK_LOOK = {"n": 2000, "runs": 2, "cycles": 25,
                         "cycles_per_epoch": 25}
MESSAGES_QUICK_LOOK = {"n": 2000, "runs": 2, "cycles": 25,
                       "loss_rates": (0.0, 0.05, 0.1)}


class TestPinnedPayloads:
    def test_robustness_quick_look(self):
        sweep = RobustnessSweep.from_mapping(ROBUSTNESS_QUICK_LOOK)
        assert _digest(sweep.run()).startswith(
            "332d39b3fed5b5ad878ac669546e16c0"
        )

    def test_messages_quick_look(self):
        sweep = MessageFaultSweep.from_mapping(MESSAGES_QUICK_LOOK)
        assert _digest(sweep.run()).startswith(
            "b203c35cdbc3832d9ae2e76cbd37bb60"
        )

    def test_messages_integer_rate_keeps_its_own_seed(self):
        """Cells fold the value as given: a config's ``0`` and ``0.0``
        are different seed tags (and different payload bytes)."""
        mapping = dict(MESSAGES_QUICK_LOOK, loss_rates=[0, 0.05, 0.1])
        sweep = MessageFaultSweep.from_mapping(mapping)
        assert _digest(sweep.run()).startswith(
            "b012475b82eaf484bc8f99bdb8dc0a8f"
        )

    def test_bench_adversary_reduced_grid(self):
        sweep = _bench("bench_adversary").build_sweep(2000)
        assert _digest(sweep.run()).startswith(
            "10842743b873e0144985efb20ab92866"
        )

    def test_bench_messages_reduced_grid(self):
        sweep = _bench("bench_messages").build_sweep(2000)
        assert _digest(sweep.run()).startswith(
            "0dc4431c6a9e2090df0b9b677b35de5d"
        )


def _size_grid(sizes):
    """Final variance of plain AVG over a network-size axis."""

    def resize(scenario, cell):
        n = cell["n"]
        values = np.random.default_rng(n).normal(0.0, 1.0, n)
        return scenario.replace(topology=CompleteTopology(n), values=values)

    return ScenarioGrid(
        base=Scenario(CompleteTopology(2), [0.0, 1.0], cycles=8),
        axes=(Axis("n", sizes, resize),),
        metric=_run_variance,
        reduce=lambda outcomes: {"variances": outcomes},
        runs=2,
        seed_tag=("sizes",),
    )


def _run_variance(scenario):
    variances = run_scenario(scenario).variance_array()
    assert variances[-1] < variances[0]
    return float(variances[-1])


class TestScenarioGrid:
    def test_one_row_per_cell_with_replications(self):
        rows = _size_grid((100, 200)).run()
        assert [row["n"] for row in rows] == [100, 200]
        for row in rows:
            assert row["runs"] == 2
            assert len(set(row["variances"])) == 2  # independent streams

    def test_cells_keep_their_streams_when_the_grid_changes(self):
        """Seeds fold the cell's own values, so a shared cell reads the
        same whatever else the grid holds, in whatever order."""
        short = _size_grid((100, 200)).run()
        longer = _size_grid((300, 200, 100)).run()
        by_n = {row["n"]: row["variances"] for row in longer}
        for row in short:
            assert by_n[row["n"]] == row["variances"]

    def test_skip_and_joint_axes(self):
        grid = ScenarioGrid(
            base=Scenario(CompleteTopology(2), [0.0, 1.0]),
            axes=(
                Axis("kind", ("a", "b")),
                Axis(("topology", "rate"), (("complete", 0.0),
                                            ("regular", 0.1))),
            ),
            metric=lambda scenario: None,
            reduce=lambda outcomes: {},
            skip=lambda cell: cell["kind"] == "b" and cell["rate"] > 0,
        )
        assert grid.cells() == [
            {"kind": "a", "topology": "complete", "rate": 0.0},
            {"kind": "a", "topology": "regular", "rate": 0.1},
            {"kind": "b", "topology": "complete", "rate": 0.0},
        ]


class TestSurface:
    """No option comes or goes without editing these lists."""

    def test_config_keys(self):
        assert [f.name for f in dataclasses.fields(RobustnessSweep)] == [
            "n", "cycles", "cycles_per_epoch", "runs", "value", "kinds",
            "fractions", "churn_rates", "topologies", "backend", "seed",
            "trim",
        ]
        assert [f.name for f in dataclasses.fields(MessageFaultSweep)] == [
            "n", "cycles", "runs", "loss_rates", "directions", "policies",
            "duplication", "backend", "seed",
        ]

    def test_cli_flags(self):
        parser = build_parser()
        robustness = parser._subparsers._group_actions[0].choices[
            "robustness"
        ]
        flags = sorted(
            option for action in robustness._actions
            for option in action.option_strings
        )
        assert flags == sorted([
            "-h", "--help", "--config", "--n", "--runs", "--cycles",
            "--epoch", "--value", "--seed", "--fractions", "--churn-rates",
            "--kinds", "--topologies", "--messages", "--loss-rates",
            "--retry", "--directions", "--duplication", "--svg",
            "--backend", "--workers", "--on-pool-failure",
        ])


class TestCommand:
    @pytest.mark.parametrize("extra", [[], ["--messages"]])
    def test_writes_a_wellformed_figure(self, extra, tmp_path, capsys):
        out = tmp_path / "figure.svg"
        argv = ["robustness", *extra, "--n", "300", "--runs", "1",
                "--svg", str(out)]
        assert main(argv) == 0
        assert f"figure written to {out}" in capsys.readouterr().out
        document = xml.dom.minidom.parseString(out.read_text())
        assert document.getElementsByTagName("polyline")

    def test_robustness_figure_draws_every_static_topology(
        self, tmp_path, capsys
    ):
        """One polyline per reduction and overlay, one dash style per
        overlay — a sparse-only sweep is not an empty figure."""
        out = tmp_path / "r.svg"

        def polylines(*flags):
            argv = ["robustness", "--n", "300", "--runs", "1",
                    "--cycles", "6", "--epoch", "6", "--kinds", "lying",
                    "--fractions", "0,0.1", "--svg", str(out), *flags]
            assert main(argv) == 0
            document = xml.dom.minidom.parseString(out.read_text())
            return document.getElementsByTagName("polyline")

        assert len(polylines("--topologies", "regular6",
                             "--churn-rates", "0")) == 3
        drawn = polylines("--topologies", "complete,regular6",
                          "--churn-rates", "0,0.01")
        assert len(drawn) == 9
        assert len({line.getAttribute("stroke-dasharray")
                    for line in drawn}) == 3

    @pytest.mark.parametrize("argv, flag", [
        (["--messages", "--kinds", "lying"], "--kinds"),
        (["--messages", "--fractions", "0.3"], "--fractions"),
        (["--messages", "--epoch", "5"], "--epoch"),
        (["--loss-rates", "0.1"], "--loss-rates"),
        (["--retry", "none"], "--retry"),
        (["--directions", "reply"], "--directions"),
        (["--duplication", "0.1"], "--duplication"),
    ])
    def test_flags_for_the_other_sweep_are_usage_errors(
        self, argv, flag, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["robustness", "--n", "300", *argv])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
