"""Self-healing shard pool: injected faults, recovery, bitwise equality.

The pool's failure policy (``on_failure``) decides what a dead or
stalled worker costs: ``"raise"`` fails fast with a typed
:class:`ShardPoolError` (the historical behaviour), ``"respawn"``
replays the journaled in-flight schedule inline and restarts the
worker, ``"inline"`` degrades the backend to single-process vectorized
execution for the rest of the run. Either way the run's trajectory
must stay **bitwise identical** to an undisturbed reference run — the
journal snapshot/replay exists precisely so recovery consumes no
randomness and loses no exchanges. Faults are injected declaratively
via :class:`FaultSpec` through ``ShardedBackend.inject_faults``.
"""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.errors import ShardPoolError
from repro.failures import ConstantRateChurn
from repro.kernel import (
    ChurnSpec,
    FaultSpec,
    GossipEngine,
    Scenario,
    ShardedBackend,
)
from repro.kernel.backends import POOL_FAILURE_MODES
from repro.topology import CompleteTopology

pytestmark = pytest.mark.faults

N = 2500
CYCLES = 12


@pytest.fixture(scope="module")
def reference_run():
    """The undisturbed trajectory every recovered run must equal."""
    engine = GossipEngine(_scenario("reference"))
    engine.run(CYCLES)
    yield engine
    engine.close()


def _scenario(backend):
    values = np.random.default_rng(3).normal(10.0, 4.0, N)
    return Scenario(CompleteTopology(N), values,
                    churn=ChurnSpec(model=ConstantRateChurn(7, 11)),
                    cycles=CYCLES, seed=17, backend=backend)


def _shm_segments():
    try:
        return {name for name in os.listdir("/dev/shm")
                if not name.startswith(".")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _run_with_faults(mode, faults, reference, max_respawns=2):
    """Run under injected faults; assert bitwise equality against the
    reference engine and no leaked shared-memory segments; return the
    backend's health report."""
    before = _shm_segments()
    backend = ShardedBackend(2, on_failure=mode, max_respawns=max_respawns)
    backend.inject_faults(faults)
    engine = GossipEngine(_scenario(backend))
    try:
        engine.run(CYCLES)
        assert np.array_equal(reference.matrix, engine.matrix)
        assert np.array_equal(reference.alive_mask, engine.alive_mask)
        report = backend.health_report()
    finally:
        engine.close()
    assert _shm_segments() <= before, "leaked /dev/shm segments"
    return report


class TestRecovery:
    def test_kill_worker_respawn(self, reference_run):
        report = _run_with_faults(
            "respawn",
            [FaultSpec("kill_worker", worker=1, at_call=4)],
            reference_run,
        )
        assert report.respawns == 1
        assert not report.degraded
        assert report.events and report.events[0]["action"] == "respawn"
        assert report.recovery_seconds > 0.0

    def test_corrupt_bank_respawn(self, reference_run):
        """A corrupted schedule bank is survivable because the journal
        copies were taken before the corruption hit shared memory."""
        report = _run_with_faults(
            "respawn",
            [FaultSpec("corrupt_bank", at_call=3)],
            reference_run,
        )
        assert report.respawns >= 1
        assert not report.degraded

    def test_delayed_ack_respawn(self, reference_run, monkeypatch):
        """A worker that stalls past the pool timeout is treated like a
        dead one: journal replay + respawn, still bitwise."""
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "0.5")
        report = _run_with_faults(
            "respawn",
            [FaultSpec("delay_ack", worker=0, at_call=2, delay=2.0)],
            reference_run,
        )
        assert report.respawns >= 1
        assert not report.degraded

    def test_dead_peer_does_not_cost_the_timeout(self, reference_run,
                                                 monkeypatch):
        """Worker 1 is SIGKILLed mid-schedule; worker 0 finishes its
        slice and blocks in the segment barrier, alive. The parent
        polls worker 0's pipe first, so it must notice the dead *peer*
        between poll slices — not wait out the liveness timeout and
        then blame the survivor."""
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "30")
        for trial in range(10):
            started = time.perf_counter()
            report = _run_with_faults(
                "respawn",
                [FaultSpec("kill_worker", worker=1, at_call=2 + trial)],
                reference_run,
            )
            assert time.perf_counter() - started < 5.0
            assert [event["worker"] for event in report.events] == [1]

    def test_kill_worker_inline_degrade(self, reference_run):
        report = _run_with_faults(
            "inline",
            [FaultSpec("kill_worker", worker=0, at_call=2)],
            reference_run,
        )
        assert report.degraded
        assert report.respawns == 0
        assert report.events[0]["action"] == "inline"

    def test_respawn_budget_exhaustion_degrades(self, reference_run):
        """More worker deaths than ``max_respawns`` flips respawn mode
        into the inline degrade path instead of failing the run."""
        report = _run_with_faults(
            "respawn",
            [FaultSpec("kill_worker", worker=1, at_call=2),
             FaultSpec("kill_worker", worker=0, at_call=5),
             FaultSpec("kill_worker", worker=1, at_call=8)],
            reference_run,
            max_respawns=2,
        )
        assert report.respawns == 2
        assert report.degraded
        assert [e["action"] for e in report.events] == \
            ["respawn", "respawn", "inline"]

    def test_raise_mode_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "3")
        before = _shm_segments()
        backend = ShardedBackend(2, on_failure="raise")
        backend.inject_faults(
            [FaultSpec("kill_worker", worker=1, at_call=3)])
        engine = GossipEngine(_scenario(backend))
        try:
            with pytest.raises(ShardPoolError):
                engine.run(CYCLES)
        finally:
            engine.close()
        assert _shm_segments() <= before, "leaked /dev/shm segments"


class TestDeferredReadings:
    """A static ``record="cycle"`` run leaves its per-cycle readings
    with the workers (``defer_moments``); a worker that dies with one
    outstanding must cost neither a recorded value nor a segment."""

    @staticmethod
    def _static(backend):
        values = np.random.default_rng(3).normal(10.0, 4.0, N)
        return Scenario(CompleteTopology(N), values, cycles=CYCLES,
                        seed=17, backend=backend)

    def _recorded(self, backend):
        with GossipEngine(self._static(backend)) as engine:
            result = engine.run(CYCLES, record="cycle")
            return result.variances, result.means, engine.matrix.tobytes()

    @pytest.mark.parametrize("mode", ["respawn", "inline"])
    @pytest.mark.parametrize("worker", [0, 1])
    def test_killed_worker_loses_no_reading(self, mode, worker):
        expected = self._recorded("vectorized")
        before = _shm_segments()
        backend = ShardedBackend(2, on_failure=mode)
        backend.inject_faults(
            [FaultSpec("kill_worker", worker=worker, at_call=4)])
        assert self._recorded(backend) == expected
        report = backend.health_report()
        assert [event["worker"] for event in report.events] == [worker]
        assert report.degraded == (mode == "inline")
        assert _shm_segments() <= before, "leaked /dev/shm segments"

    def test_reading_lost_after_its_schedule_was_applied(self):
        """The worker dies *between* acknowledging the schedule and
        taking the reading queued behind it: nothing is left to replay,
        and the reading is taken inline from the applied state."""
        expected = self._recorded("vectorized")
        backend = ShardedBackend(2, on_failure="respawn")
        with GossipEngine(self._static(backend)) as engine:
            first = engine.run(3, record="cycle")
            engine.run_cycle()
            backend.sync()
            os.kill(backend._procs[1].pid, signal.SIGKILL)
            ticket = backend.defer_moments(engine._matrix, [0])
            lost = ticket() if ticket is not None else None
            rest = engine.run(CYCLES - 4, record="cycle")
            events = backend.health_report().events
            final = engine.matrix.tobytes()
        assert [event["replayed"] for event in events] == [False]
        variances = first.variances["mean"] + rest.variances["mean"]
        means = first.means["mean"] + rest.means["mean"]
        assert (variances, means) == (
            expected[0]["mean"], expected[1]["mean"]
        )
        assert lost is None or lost == [(variances[4], means[4])]
        assert final == expected[2]

    def test_raise_mode_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "3")
        before = _shm_segments()
        backend = ShardedBackend(2, on_failure="raise")
        backend.inject_faults(
            [FaultSpec("kill_worker", worker=1, at_call=3)])
        engine = GossipEngine(self._static(backend))
        try:
            with pytest.raises(ShardPoolError):
                engine.run(CYCLES, record="cycle")
        finally:
            engine.close()
        assert _shm_segments() <= before, "leaked /dev/shm segments"


class TestConfiguration:
    def test_failure_modes_are_closed(self):
        assert POOL_FAILURE_MODES == ("raise", "respawn", "inline")
        with pytest.raises(Exception):
            ShardedBackend(2, on_failure="retry-forever")

    def test_env_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_ON_FAILURE", "respawn")
        backend = ShardedBackend(2)
        assert backend.on_failure == "respawn"
        backend.close()

    def test_inject_faults_validation(self):
        backend = ShardedBackend(2, on_failure="respawn")
        try:
            with pytest.raises(Exception):
                backend.inject_faults([FaultSpec("parent_kill")])
            with pytest.raises(Exception):
                backend.inject_faults(
                    [FaultSpec("kill_worker", worker=7)])
            with pytest.raises(Exception):
                backend.inject_faults(["kill_worker"])
        finally:
            backend.close()

    def test_fault_spec_validation(self):
        with pytest.raises(Exception):
            FaultSpec("meteor_strike")
        with pytest.raises(Exception):
            FaultSpec("kill_worker", at_call=-1)
        with pytest.raises(Exception):
            FaultSpec("delay_ack", delay=0.0)


class TestShardPoolError:
    """Satellite: the pool error survives pickling (worker -> parent
    pipes, CI subprocesses) and collapses to one greppable repr line."""

    def test_pickle_round_trip(self):
        error = ShardPoolError("apply", worker=3,
                               detail="Traceback ...\nboom")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, ShardPoolError)
        assert clone.phase == "apply"
        assert clone.worker == 3
        assert clone.detail == error.detail
        assert str(clone) == str(error)

    def test_repr_is_one_line(self):
        error = ShardPoolError("barrier", worker=1,
                               detail="line one\nline two\n" + "x" * 400)
        text = repr(error)
        assert "\n" not in text
        assert "barrier" in text and "worker=1" in text
