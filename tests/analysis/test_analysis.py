"""Tests for the analysis package: stats, runner, reporting."""

import numpy as np
import pytest

from repro.analysis import (
    MessageFaultSweep,
    RobustnessSweep,
    ScenarioGrid,
    Table,
    confidence_interval,
    format_series,
    format_table,
    geometric_mean,
    replicate,
    summarize,
)
from repro.errors import ConfigurationError
from repro.kernel import Scenario
from repro.topology import CompleteTopology


class TestSummarize:
    def test_basic(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.count == 3
        assert summary.std == pytest.approx(1.0)

    def test_single_value(self):
        summary = summarize([5.0])
        assert summary.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_standard_error(self):
        summary = summarize([0.0, 2.0, 4.0, 6.0])
        assert summary.standard_error == pytest.approx(
            summary.std / 2.0
        )

    def test_confidence_interval_contains_mean(self):
        low, high = confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert low < 2.5 < high

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([1.0, 0.0])


class TestReplicate:
    def test_collects_outputs(self):
        result = replicate(lambda rng: float(rng.random()), runs=5, seed=1)
        assert len(result.outputs) == 5

    def test_runs_are_independent(self):
        result = replicate(lambda rng: float(rng.random()), runs=5, seed=1)
        assert len(set(result.outputs)) == 5

    def test_deterministic(self):
        a = replicate(lambda rng: float(rng.random()), runs=3, seed=2)
        b = replicate(lambda rng: float(rng.random()), runs=3, seed=2)
        assert a.outputs == b.outputs

    def test_as_array(self):
        result = replicate(lambda rng: 1.0, runs=4, seed=3)
        assert result.as_array().shape == (4,)

    @pytest.mark.parametrize("runs", [0, True, 2.5])
    def test_zero_runs_rejected(self, runs):
        with pytest.raises(ConfigurationError, match="runs"):
            replicate(lambda rng: 1.0, runs=runs)


class TestSweepValidation:
    """The sweep configs and the grid under them take integer counts
    only: bools and floats fail at construction, naming the field."""

    @pytest.mark.parametrize("field, value", [
        ("n", 1), ("n", True), ("n", 2.5),
        ("runs", 0), ("runs", 2.5), ("runs", True),
        ("cycles", 2.5), ("cycles", True),
    ])
    @pytest.mark.parametrize("sweep", [RobustnessSweep, MessageFaultSweep])
    def test_sweep_counts_validated(self, sweep, field, value):
        with pytest.raises(ConfigurationError, match=f"{sweep.__name__}."
                                                     f"{field}"):
            sweep(**{field: value})

    @pytest.mark.parametrize("value", [0, 2.5, True])
    def test_sweep_epoch_length_validated(self, value):
        with pytest.raises(ConfigurationError, match="cycles_per_epoch"):
            RobustnessSweep(cycles_per_epoch=value)

    def test_message_sweep_needs_two_cycles(self):
        with pytest.raises(ConfigurationError, match="cycles"):
            MessageFaultSweep(cycles=1)
        assert MessageFaultSweep(cycles=2).cycles == 2

    @pytest.mark.parametrize("runs", [0, 2.5, True])
    def test_grid_runs_validated(self, runs):
        base = Scenario(CompleteTopology(4), np.arange(4.0))
        with pytest.raises(ConfigurationError, match="ScenarioGrid.runs"):
            ScenarioGrid(base, (), metric=len, reduce=dict, runs=runs)


class TestReporting:
    def test_table_rendering(self):
        table = Table(headers=["name", "rate"], title="Rates")
        table.add_row("pm", 0.25)
        table.add_row("rand", 0.368)
        text = table.render()
        assert "Rates" in text
        assert "pm" in text
        assert "0.368" in text

    def test_row_width_checked(self):
        table = Table(headers=["a", "b"])
        with pytest.raises(ConfigurationError):
            table.add_row(1)

    def test_format_table(self):
        text = format_table("T", ["x"], [[1], [2]])
        assert text.splitlines()[0] == "T"

    def test_format_series(self):
        text = format_series("S", [1, 2], [0.5, 0.25], x_name="cycle",
                             y_name="variance")
        assert "cycle" in text
        assert "variance" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_series("S", [1], [1, 2])

    def test_alignment(self):
        table = Table(headers=["long_header", "x"])
        table.add_row("a", "very_long_cell")
        lines = table.render().splitlines()
        assert len(lines[0]) == len(lines[2]) or len(lines[1]) >= len(lines[2])
