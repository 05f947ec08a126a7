"""Multi-seed replication and scenario grids.

Experiments in the paper are "averages over 50 independent runs";
:func:`replicate` runs an experiment function once per independent seed
stream and collects the outputs, and :func:`replicate_scenario` does the
same for one declarative :class:`~repro.kernel.Scenario`.

A :class:`ScenarioGrid` crosses named :class:`Axis` edits of a base
scenario, replicates every cell over its own seed streams and reduces
each cell to one row — the adversary and message-fault sweeps in
:mod:`repro.analysis.robustness` are two grid definitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..fields import check_count
from ..kernel.engine import run_scenario
from ..kernel.scenario import Scenario
from ..rng import SeedLike, spawn_streams


@dataclass
class ReplicateResult:
    """Outputs of replicated runs of one experiment configuration."""

    outputs: List[Any] = field(default_factory=list)

    def as_array(self) -> np.ndarray:
        """Stack scalar or array outputs into a numpy array."""
        return np.asarray(self.outputs)


def replicate(
    experiment: Callable[[np.random.Generator], Any],
    *,
    runs: int,
    seed: SeedLike = None,
) -> ReplicateResult:
    """Run ``experiment`` once per independent RNG stream.

    ``experiment`` receives a dedicated generator; its return values are
    collected in order.
    """
    check_count(runs, "replicate.runs", low=1)
    result = ReplicateResult()
    for rng in spawn_streams(seed, runs):
        result.outputs.append(experiment(rng))
    return result


def replicate_scenario(
    scenario: Scenario,
    *,
    runs: int,
    seed: SeedLike = None,
) -> ReplicateResult:
    """Run one kernel scenario once per independent seed stream.

    Each run executes a copy of ``scenario`` re-seeded from the master
    ``seed`` (default: the scenario's own seed), so runs are independent
    and the whole replication is reproducible from one integer. Outputs
    are :class:`~repro.kernel.KernelRunResult` objects.
    """
    check_count(runs, "replicate_scenario.runs", low=1)
    master = scenario.seed if seed is None else seed
    result = ReplicateResult()
    for rng in spawn_streams(master, runs):
        result.outputs.append(run_scenario(scenario.replace(seed=rng)))
    return result


def fold_seed(parts: Tuple[Any, ...]) -> int:
    """Deterministic 63-bit seed from a mixed tuple (FNV-1a over its
    ``repr``, so ``0`` and ``0.0`` are different tags)."""
    accumulator = 1469598103934665603  # FNV-1a offset basis
    for byte in repr(parts).encode():
        accumulator = ((accumulator ^ byte) * 1099511628211) % (1 << 63)
    return accumulator


@dataclass(frozen=True)
class Axis:
    """One named grid axis: ``name`` is a cell key, or a tuple of keys
    that vary jointly (each value then a tuple as long). ``edit`` applies
    the cell's value to the scenario; it sees the whole cell, so one edit
    may combine axes, and ``None`` leaves the scenario alone (a label a
    later edit reads)."""

    name: Union[str, Tuple[str, ...]]
    values: Sequence[Any]
    edit: Optional[Callable[[Scenario, Mapping[str, Any]], Scenario]] = None


@dataclass(frozen=True)
class ScenarioGrid:
    """Named axes of scenario edits, replicated and reduced per cell.

    Cells run in axis order, the last axis fastest, minus those
    ``skip`` rejects. A cell's scenario is ``base`` with every axis edit
    applied in order. Its ``runs`` replications run on the streams of
    ``fold_seed(seed_tag + cell values)``, so a cell keeps its streams
    when the grid gains or loses other cells. ``metric`` turns one
    seeded scenario into one replication's outcome, and ``reduce`` turns
    a cell's outcomes into the fields of its row.
    """

    base: Scenario
    axes: Sequence[Axis]
    metric: Callable[[Scenario], Any]
    reduce: Callable[[List[Any]], Dict[str, Any]]
    runs: int = 1
    seed_tag: Tuple[Any, ...] = ()
    skip: Optional[Callable[[Mapping[str, Any]], bool]] = None

    def __post_init__(self) -> None:
        check_count(self.runs, "ScenarioGrid.runs", low=1)

    def cells(self) -> List[Dict[str, Any]]:
        """The cell matrix, in execution order."""
        matrix = []
        for values in itertools.product(*(axis.values for axis in self.axes)):
            cell: Dict[str, Any] = {}
            for axis, value in zip(self.axes, values):
                if isinstance(axis.name, tuple):
                    cell.update(zip(axis.name, value))
                else:
                    cell[axis.name] = value
            if self.skip is None or not self.skip(cell):
                matrix.append(cell)
        return matrix

    def run(self) -> List[Dict[str, Any]]:
        """One row per cell: the cell, ``runs`` and the reduced fields."""
        rows = []
        for cell in self.cells():
            scenario = self.base
            for axis in self.axes:
                if axis.edit is not None:
                    scenario = axis.edit(scenario, cell)
            seed = fold_seed(self.seed_tag + tuple(cell.values()))
            outcomes = [self.metric(scenario.replace(seed=rng))
                        for rng in spawn_streams(seed, self.runs)]
            rows.append({**cell, "runs": self.runs, **self.reduce(outcomes)})
        return rows
