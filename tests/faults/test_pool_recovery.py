"""Self-healing shard pool: injected faults, recovery, bitwise equality.

The pool's failure policy (``on_failure``) decides what a dead or
stalled worker costs: ``"raise"`` fails fast with a typed
:class:`ShardPoolError`, and the backend stays failed; ``"respawn"``
replays the journaled in-flight schedule inline and lets the next
schedule fork new workers, until ``max_respawns`` credits are spent
and the backend degrades to single-process vectorized execution for
the rest of the run (at once with ``max_respawns=0``). A healed run's
trajectory must stay **bitwise identical** to an undisturbed reference
run — the journal snapshot/replay exists precisely so recovery
consumes no randomness and loses no exchanges. Faults are injected
declaratively via :class:`FaultSpec` through
``ShardedBackend.inject_faults``; that fires them at the one instant a
healing pool is idle, so :class:`TestDeathInsideASchedule` kills from
a timer thread instead. The deadline and the ``/dev/shm`` / child
process audit every test here runs under are ``tests/conftest.py``'s
``pool_deadline_and_leak_audit``.
"""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import MeanAggregate
from repro.errors import ConfigurationError, ShardPoolError
from repro.kernel import (
    ChurnTrace,
    FaultSpec,
    GossipEngine,
    Scenario,
    ShardedBackend,
    VectorizedBackend,
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
                    churn=ChurnTrace.constant(CYCLES, 7, 11),
                    cycles=CYCLES, seed=17, backend=backend)


def _static(backend, cycles=CYCLES):
    """The same network with nothing joining or leaving: under
    ``record="cycle"`` its readings are left with the workers."""
    values = np.random.default_rng(3).normal(10.0, 4.0, N)
    return Scenario(CompleteTopology(N), values, cycles=cycles,
                    seed=17, backend=backend)


def _recorded(backend, cycles=CYCLES):
    with GossipEngine(_static(backend, cycles)) as engine:
        result = engine.run(cycles, record="cycle")
        return result.variances, result.means, engine.matrix.tobytes()


def _run_with_faults(mode, faults, reference, max_respawns=2):
    """Run under injected faults; assert bitwise equality against the
    reference engine; return the backend's health report."""
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
    return report


def _assert_failed_for_good(engine, run, static):
    """``run()`` loses the pool under ``raise``; from then on the
    backend raises the same error instead of applying — and, on a
    ``static`` scenario, where the engine itself writes no row at the
    start of a cycle, the matrix stays as the failure left it."""
    with pytest.raises(ShardPoolError) as first:
        run()
    left = engine.matrix.tobytes()
    with pytest.raises(ShardPoolError) as again:
        engine.run_cycle()
    assert (again.value.phase, again.value.worker) == (
        first.value.phase, first.value.worker
    )
    assert not static or engine.matrix.tobytes() == left


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

    def test_kill_worker_at_a_derived_window(self):
        """At 48 000 rows the pool plans 6 000-step windows, so the
        journal a respawn replays holds many small segments a call."""
        n = 48_000
        values = np.random.default_rng(4).normal(10.0, 4.0, n)

        def engine(backend):
            return GossipEngine(Scenario(CompleteTopology(n), values,
                                         cycles=3, seed=19, backend=backend))

        with engine("vectorized") as expected:
            expected.run(3)
        backend = ShardedBackend(2, on_failure="respawn")
        backend.inject_faults([FaultSpec("kill_worker", worker=1, at_call=1)])
        with engine(backend) as healed:
            healed.run(3)
            segments = backend._journal[3]
            assert len(segments) >= n // 6_000
            assert max(end - start for start, end, _ in segments) <= 6_000
        assert np.array_equal(expected.matrix, healed.matrix)
        report = backend.health_report()
        assert report.respawns == 1 and not report.degraded

    def test_kill_worker_inline_degrade(self, reference_run):
        report = _run_with_faults(
            "respawn",
            [FaultSpec("kill_worker", worker=0, at_call=2)],
            reference_run,
            max_respawns=0,
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

    def test_two_kills_at_consecutive_calls(self, reference_run):
        """The second and third kill each hit a pool at its first
        schedule: the one the previous recovery left to be forked."""
        report = _run_with_faults(
            "respawn",
            [FaultSpec("kill_worker", worker=1, at_call=4),
             FaultSpec("kill_worker", worker=0, at_call=5),
             FaultSpec("kill_worker", worker=1, at_call=6)],
            reference_run,
            max_respawns=2,
        )
        assert [e["action"] for e in report.events] == \
            ["respawn", "respawn", "inline"]

    def test_lost_pool_comes_back_at_the_next_schedule_or_remap(self):
        """Respawn is lazy: recovery forks nothing; the next schedule
        does, or — fork first, then the new segment — the next remap."""
        functions = (MeanAggregate(),)
        steps = np.arange(32), np.arange(32, 64)
        values = np.random.default_rng(5).normal(0.0, 1.0, (64, 1))
        expected = values.copy()
        for _ in range(5):
            VectorizedBackend().apply_exchanges(expected, functions, *steps)
        backend = ShardedBackend(2, on_failure="respawn", max_respawns=3)
        try:
            matrix = backend.adopt_matrix(values)
            backend.apply_exchanges(matrix, functions, *steps)
            for remap in (False, True):
                backend.sync()
                backend._procs[1].kill()
                backend._procs[1].join(timeout=5)
                # published into a broken pipe, replayed in-process
                backend.apply_exchanges(matrix, functions, *steps)
                assert backend.active_workers == 0
                if remap:
                    matrix = backend.grow_matrix(matrix, 128)
                else:
                    backend.apply_exchanges(matrix, functions, *steps)
                assert backend.active_workers == 2
            backend.apply_exchanges(matrix, functions, *steps)
            backend.sync()
            assert np.array_equal(matrix[:64], expected)
            report = backend.health_report()
        finally:
            backend.close()
        assert [(e["action"], e["replayed"]) for e in report.events] == \
            [("respawn", True)] * 2
        assert report.respawns == 2 and not report.degraded

    def test_raise_mode_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "3")
        backend = ShardedBackend(2, on_failure="raise")
        backend.inject_faults(
            [FaultSpec("kill_worker", worker=1, at_call=3)])
        engine = GossipEngine(_scenario(backend))
        try:
            _assert_failed_for_good(
                engine, lambda: engine.run(CYCLES), static=False
            )
        finally:
            engine.close()


class TestDeferredReadings:
    """A static ``record="cycle"`` run leaves its per-cycle readings
    with the workers (``defer_moments``); a worker that dies with one
    outstanding must cost neither a recorded value nor a segment."""

    @pytest.mark.parametrize("max_respawns", [
        pytest.param(2, id="respawn"), pytest.param(0, id="inline"),
    ])
    @pytest.mark.parametrize("worker", [0, 1])
    def test_killed_worker_loses_no_reading(self, max_respawns, worker):
        expected = _recorded("vectorized")
        backend = ShardedBackend(2, on_failure="respawn",
                                 max_respawns=max_respawns)
        backend.inject_faults(
            [FaultSpec("kill_worker", worker=worker, at_call=4)])
        assert _recorded(backend) == expected
        report = backend.health_report()
        assert [event["worker"] for event in report.events] == [worker]
        assert report.degraded == (max_respawns == 0)

    def test_reading_lost_after_its_schedule_was_applied(self):
        """The worker dies *between* acknowledging the schedule and
        taking the reading queued behind it: nothing is left to replay,
        and the reading is taken inline from the applied state."""
        expected = _recorded("vectorized")
        backend = ShardedBackend(2, on_failure="respawn")
        with GossipEngine(_static(backend)) as engine:
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
        backend = ShardedBackend(2, on_failure="raise")
        backend.inject_faults(
            [FaultSpec("kill_worker", worker=1, at_call=3)])
        engine = GossipEngine(_static(backend))
        try:
            _assert_failed_for_good(
                engine, lambda: engine.run(CYCLES, record="cycle"),
                static=True,
            )
        finally:
            engine.close()


class TestDeathInsideASchedule:
    """``FaultSpec`` fires between the journal and the publish — the
    one instant a healing pool is idle. A real worker dies while its
    peers apply, sleep or wait at the segment barrier, so these kill
    from a timer thread, wherever the run happens to be."""

    LONG = 400

    @staticmethod
    def _kill_later(backend, worker, seconds):
        timer = threading.Timer(
            seconds, os.kill, (backend._procs[worker].pid, signal.SIGKILL)
        )
        timer.start()
        return timer

    def _peer_dies_at_the_barrier(self, mode):
        """Three cycles in, worker 0 is stalled for 0.6 s ahead of the
        next schedule; worker 1 applies its slice of it, waits for
        worker 0 at the segment barrier, and is killed there at 0.2 s
        — with worker 0 still asleep, due at that barrier later."""
        backend = ShardedBackend(2, on_failure=mode)
        backend.inject_faults(
            [FaultSpec("delay_ack", worker=0, at_call=3, delay=0.6)])
        engine = GossipEngine(_scenario(backend))
        engine.run(3)
        backend.sync()
        return backend, engine, self._kill_later(backend, 1, 0.2)

    def test_respawn_heals_a_death_at_the_barrier(self, reference_run):
        backend, engine, timer = self._peer_dies_at_the_barrier("respawn")
        try:
            engine.run(CYCLES - 3)
            assert np.array_equal(reference_run.matrix, engine.matrix)
            assert np.array_equal(reference_run.alive_mask,
                                  engine.alive_mask)
        finally:
            timer.cancel()
            engine.close()
        events = backend.health_report().events
        assert [(e["worker"], e["replayed"]) for e in events] == [(1, True)]

    def test_raise_reports_a_death_at_the_barrier(self):
        backend, engine, timer = self._peer_dies_at_the_barrier("raise")
        started = time.perf_counter()
        try:
            with pytest.raises(ShardPoolError) as excinfo:
                engine.run(CYCLES - 3)
            assert time.perf_counter() - started < 2.0
            assert excinfo.value.worker == 1
        finally:
            timer.cancel()
            engine.close()

    @pytest.fixture(scope="class")
    def long_run(self):
        return _recorded("vectorized", self.LONG)

    @pytest.mark.parametrize("victim", [0, 1])
    @pytest.mark.parametrize("milliseconds",
                             [11, 23, 37, 52, 68, 89, 120, 200])
    def test_kill_at_a_random_instant(self, long_run, milliseconds, victim):
        backend = ShardedBackend(2, on_failure="respawn")
        scenario = _static(backend, self.LONG)
        with GossipEngine(scenario) as engine:
            timer = self._kill_later(backend, victim, milliseconds / 1e3)
            try:
                result = engine.run(self.LONG, record="cycle")
            finally:
                timer.cancel()
            got = result.variances, result.means, engine.matrix.tobytes()
        assert got == long_run
        events = backend.health_report().events
        assert [event["worker"] for event in events] == [victim]


class TestConfiguration:
    def test_failure_modes_are_closed(self):
        assert POOL_FAILURE_MODES == ("raise", "respawn")
        for mode in ("retry-forever", "inline"):
            with pytest.raises(ConfigurationError):
                ShardedBackend(2, on_failure=mode)

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
        with pytest.raises(ConfigurationError, match="delay_ack"):
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
