"""The ``parent_kill`` fault: checkpoint, SIGKILL the run, resume.

The harshest crash model the harness covers — the whole process dies
with no chance to clean up. :func:`spawn_and_kill` launches a
checkpointing CLI run as a subprocess and SIGKILLs it the moment a
checkpoint commits; the test then resumes from the surviving manifest
in-process and asserts the completed run is bitwise-identical to one
that was never interrupted. This exercises the full stack end to end:
CLI flag wiring, atomic checkpoint writes, torn-state skipping, and
``SizeEstimationExperiment.resume``'s epoch rehydration.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.size_estimation import (
    SizeEstimationConfig,
    SizeEstimationExperiment,
)
from repro.errors import SimulationError
from repro.kernel import ChurnTrace, spawn_and_kill

pytestmark = pytest.mark.faults

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

N = 500
CYCLES = 120
EPOCH = 30
SEED = 9


def _experiment():
    # must mirror the CLI's figure4 scenario exactly — the checkpoint
    # serializes no callables, so the resumed run supplies the same
    # churn trace the killed subprocess used
    return SizeEstimationExperiment(
        SizeEstimationConfig(cycles=CYCLES, cycles_per_epoch=EPOCH,
                             initial_size=N, seed=SEED),
        churn=ChurnTrace.diurnal(N, CYCLES, period=CYCLES // 2,
                                 amplitude=N // 10,
                                 fluctuation=max(N // 1000, 1)),
        backend="reference",
    )


def test_sigkill_mid_run_resumes_bitwise(tmp_path):
    manifest = spawn_and_kill(
        ["python", "-m", "repro", "figure4",
         "--n", str(N), "--cycles", str(CYCLES), "--epoch", str(EPOCH),
         "--seed", str(SEED), "--churn-trace", "diurnal",
         "--checkpoint-dir", str(tmp_path),
         "--checkpoint-every", str(EPOCH)],
        tmp_path,
        env={"PYTHONPATH": REPO_SRC},
    )
    killed_at = json.loads(manifest.read_text())["cycle"]
    assert killed_at % EPOCH == 0 and killed_at >= EPOCH

    full = _experiment()
    full.run()

    resumed = _experiment()
    resumed.resume(manifest)

    assert len(full.reports) == len(resumed.reports)
    for a, b in zip(full.reports, resumed.reports):
        assert repr(a) == repr(b)
    assert np.array_equal(full._engine.matrix, resumed._engine.matrix)
    assert np.array_equal(full._engine.alive_mask,
                          resumed._engine.alive_mask)


def test_spawn_and_kill_reports_early_exit(tmp_path):
    """A child that dies before its first checkpoint is a harness
    error, not a silent hang: the stderr rides in the message."""
    with pytest.raises(SimulationError, match="before writing"):
        spawn_and_kill(
            ["python", "-c", "import sys; sys.exit(3)"],
            tmp_path, timeout=30.0,
        )
