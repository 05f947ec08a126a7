"""Checkpoint/resume correctness: bitwise equality and format hygiene.

A checkpoint captures everything the next cycle reads — value matrix,
liveness masks, RNG state, epoch bookkeeping, membership views, pair-φ
log — so a restored engine must be indistinguishable from one that
never stopped, on any backend and under any partner-draw layer. The
tests here assert that end to end (full run vs checkpoint-and-resume,
bitwise) and cover the on-disk format's crash discipline: atomic
payload-then-manifest commits, torn-checkpoint skipping, checksum
verification, and retention pruning. :class:`TestWriter` pins the
payload to the bytes ``np.savez`` writes and checks that a failed write
leaves the previous checkpoint as the newest; :class:`TestRestorePath`
checks that restore allocates the engine around the saved matrix and
loads the rest, building no initial state and drawing nothing.

What a slot holds is one table in the engine (``_SLOT_STATE``), and
growth, recycling, checkpoint and restore are loops over it.
:class:`TestSlotTable` audits the table against the engine's
attributes, :class:`TestComposedRoundTrip` resumes every composition of
the features that add rows to it (and an eclipse run, whose captors
are a static-only row), :class:`TestEditedCheckpoint` fuzzes a real
checkpoint one member or counter at a time, and :class:`TestOlderBuild`
restores a checkpoint written before the table existed.
"""

import hashlib
import io
import json
import os
import threading
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.size_estimation import (
    SizeEstimationConfig,
    SizeEstimationExperiment,
)
from repro.errors import CheckpointError, ConfigurationError
from repro.failures.crash import CrashPlan
from repro.kernel import (
    AdversarySpec,
    CheckpointSpec,
    ChurnTrace,
    EpochSpec,
    GossipEngine,
    MessageFaultSpec,
    NewscastSpec,
    PairProtocolSpec,
    RetrySpec,
    Scenario,
    StructureMonitor,
    latest_checkpoint,
    list_checkpoints,
    prune_checkpoints,
    read_checkpoint,
)
from repro.kernel import checkpoint as checkpoint_module
from repro.kernel.checkpoint import pickle_payload, write_checkpoint
from repro.kernel.engine import _COUNTERS, _SLOT_STATE
from repro.topology import AdjacencyTopology, CompleteTopology, RingTopology

pytestmark = pytest.mark.faults

ADVERSARIES = {
    "honest": None,
    "inject": AdversarySpec(kind="inject", fraction=0.1, value=40.0),
    "partition": AdversarySpec(kind="partition", fraction=0.1),
    "lying": AdversarySpec(kind="lying", fraction=0.1, value=40.0),
}
RETRIES = {
    "no-retry": None,
    "retransmit": RetrySpec(),
    "redraw": RetrySpec(mode="redraw"),
}


def _armed(n=150, backend="vectorized", membership="newscast",
           adversary="inject", retry="retransmit", epochs=True):
    """Everything that gives a slot state, at once: churn that outgrows
    the initial capacity twice in 20 cycles (n = 150: 150 -> 225 -> 337
    slots) and recycles slots on the way, default-reseed epochs (the
    attribute matrix), an adversary mask, request / reply /
    duplication faults with the retry tables, Newscast views."""
    values = np.random.default_rng(5).normal(12.0, 3.0, n)
    return Scenario(
        CompleteTopology(n), values, seed=29, backend=backend,
        churn=ChurnTrace.constant(20, n * 2 // 25, n // 50),
        epochs=EpochSpec(cycles_per_epoch=8) if epochs else None,
        membership=NewscastSpec(view_size=8) if membership else None,
        adversary=ADVERSARIES[adversary],
        message_faults=MessageFaultSpec(
            request_loss=0.1, reply_loss=0.2, duplication=0.05
        ),
        retry=RETRIES[retry],
    )


def _row(key, edit):
    """A checkpoint edit: member ``key`` becomes ``edit(member)``."""
    def apply(manifest, arrays):
        arrays[key] = edit(arrays[key])

    return apply


def _past_capacity(row):
    """A slot-id row whose first entry names a slot past the last."""
    row = row.copy()
    row[0] = len(row)
    return row


def _state(engine):
    """Everything a resumed run has to reproduce."""
    views = engine.membership_views
    return {
        "matrix": engine.matrix,
        "alive": engine.alive_mask,
        "participant": engine._participant.copy(),
        "adversary": engine.adversary_mask,
        "views": np.empty(0) if views is None else views,
        "rng": engine._rng.bit_generator.state,
        "pending": engine.pending_retry_count,
        "stats": engine.message_fault_stats,
    }


def _digest(engine):
    digest = hashlib.sha256()
    for value in _state(engine).values():
        digest.update(
            value.tobytes() if isinstance(value, np.ndarray)
            else repr(value).encode()
        )
    return digest.hexdigest()


def _scenario(n=120, cycles=20, seed=23, backend="reference",
              membership=None, churn=False, pair=False):
    values = np.random.default_rng(5).normal(12.0, 3.0, n)
    kwargs = {}
    if membership is not None:
        kwargs["membership"] = membership
    if churn:
        kwargs["churn"] = ChurnTrace.constant(cycles, 2, 3)
    if pair:
        kwargs["pair_protocol"] = PairProtocolSpec(selector="pm",
                                                   track_phi=True)
    return Scenario(CompleteTopology(n), values, cycles=cycles,
                    seed=seed, backend=backend, **kwargs)


def _round_trip(make_scenario, total, split, tmp_path,
                resume_backend=None):
    """Run ``total`` cycles straight vs checkpoint-at-``split`` +
    resume; return both engines (caller closes)."""
    full = GossipEngine(make_scenario())
    full.run(total)

    part = GossipEngine(make_scenario())
    part.run(split)
    manifest = part.checkpoint(tmp_path)
    part.close()

    scenario = make_scenario()
    if resume_backend is not None:
        scenario = scenario.replace(backend=resume_backend)
    resumed = GossipEngine.restore(scenario, manifest)
    assert resumed.cycle == split
    resumed.run(total - split)
    return full, resumed


class TestRoundTrip:
    """Resume is bitwise-identical to never stopping."""

    @pytest.mark.parametrize("membership", [None, "newscast"])
    @pytest.mark.parametrize(
        "backend", ["reference", "vectorized", "sharded:2"]
    )
    def test_backends_and_providers(self, backend, membership, tmp_path):
        full, resumed = _round_trip(
            lambda: _scenario(backend=backend, membership=membership,
                              churn=True),
            total=20, split=12, tmp_path=tmp_path,
        )
        try:
            assert np.array_equal(full.matrix, resumed.matrix)
            assert np.array_equal(full.alive_mask, resumed.alive_mask)
            assert full._rng.bit_generator.state == \
                resumed._rng.bit_generator.state
        finally:
            full.close()
            resumed.close()

    def test_cross_backend_resume(self, tmp_path):
        """A run checkpointed under the sharded pool resumes in-process
        (and the other way round) without a bit of drift."""
        full, resumed = _round_trip(
            lambda: _scenario(n=400, backend="sharded:2", churn=True),
            total=18, split=10, tmp_path=tmp_path,
            resume_backend="reference",
        )
        try:
            assert np.array_equal(full.matrix, resumed.matrix)
            assert np.array_equal(full.alive_mask, resumed.alive_mask)
        finally:
            full.close()
            resumed.close()

    def test_pair_mode_phi_log(self, tmp_path):
        """Pair-mode state (φ log included) survives the round trip;
        the resumed ``run()`` reports only its own rows while the
        engine keeps the cumulative log."""
        full, resumed = _round_trip(
            lambda: _scenario(n=90, backend="reference", pair=True),
            total=14, split=8, tmp_path=tmp_path,
        )
        try:
            assert np.array_equal(full.matrix, resumed.matrix)
            assert np.array_equal(np.stack(full._phi_log),
                                  np.stack(resumed._phi_log))
        finally:
            full.close()
            resumed.close()

    def test_experiment_resume(self, tmp_path):
        """``SizeEstimationExperiment.resume`` rebuilds the epoch
        bookkeeping (reports, in-flight instance count) so resumed
        epochs finalize exactly like uninterrupted ones."""
        def config(cycles):
            return SizeEstimationConfig(
                cycles=cycles, cycles_per_epoch=10,
                expected_leaders=2.0, initial_size=300, seed=99,
            )

        full = SizeEstimationExperiment(
            config(40), churn=ChurnTrace.constant(40, 4, 6),
            backend="reference")
        full.run()

        part = SizeEstimationExperiment(
            config(25), churn=ChurnTrace.constant(40, 4, 6),
            backend="reference")
        part.run(checkpoint=CheckpointSpec(directory=tmp_path,
                                           every_cycles=25))

        resumed = SizeEstimationExperiment(
            config(40), churn=ChurnTrace.constant(40, 4, 6),
            backend="vectorized")
        resumed.resume(tmp_path)

        assert len(full.reports) == len(resumed.reports)
        for a, b in zip(full.reports, resumed.reports):
            assert repr(a) == repr(b)
        assert full.size_trace[25:] == resumed.size_trace

    def test_resume_past_the_end_is_an_error(self, tmp_path):
        part = SizeEstimationExperiment(
            SizeEstimationConfig(cycles=20, cycles_per_epoch=10,
                                 initial_size=200, seed=7),
            backend="reference")
        part.run(checkpoint=CheckpointSpec(directory=tmp_path,
                                           every_cycles=20))
        shorter = SizeEstimationExperiment(
            SizeEstimationConfig(cycles=10, cycles_per_epoch=10,
                                 initial_size=200, seed=7),
            backend="reference")
        with pytest.raises(ConfigurationError):
            shorter.resume(tmp_path)


class TestRngStateProperty:
    """Property: the RNG bit-generator state round-trips exactly for
    any (seed, split) and any backend × partner-provider pairing, so
    every post-resume draw matches the uninterrupted run's."""

    @pytest.mark.parametrize("membership", [None, "newscast"])
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           split=st.integers(min_value=1, max_value=11))
    def test_rng_round_trip(self, backend, membership, seed, split,
                            tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rng")
        full, resumed = _round_trip(
            lambda: _scenario(n=64, cycles=12, seed=seed,
                              backend=backend, membership=membership),
            total=12, split=split, tmp_path=tmp,
        )
        try:
            assert full._rng.bit_generator.state == \
                resumed._rng.bit_generator.state
            assert np.array_equal(full.matrix, resumed.matrix)
        finally:
            full.close()
            resumed.close()


class TestFormat:
    """On-disk discipline: atomicity, torn-write recovery, checksums,
    retention."""

    def _write_one(self, tmp_path, cycles=5):
        engine = GossipEngine(_scenario(n=40, cycles=cycles))
        engine.run(cycles)
        manifest = engine.checkpoint(tmp_path)
        engine.close()
        return manifest

    def test_manifest_is_the_commit_record(self, tmp_path):
        manifest = self._write_one(tmp_path)
        payload = manifest.with_suffix(".npz")
        assert manifest.exists() and payload.exists()
        data = json.loads(manifest.read_text())
        assert data["cycle"] == 5
        assert data["sha256"]

    def test_torn_checkpoint_is_skipped(self, tmp_path):
        """A manifest whose payload vanished (the torn half of a crash
        mid-write) must not be offered as the latest checkpoint, and
        neither must a manifest that is JSON but not an object."""
        older = self._write_one(tmp_path, cycles=3)
        newer = self._write_one(tmp_path, cycles=6)
        newer.with_suffix(".npz").unlink()
        assert latest_checkpoint(tmp_path) == older
        listed = tmp_path / "ck-0000000009.json"
        listed.write_text("[]")
        assert latest_checkpoint(tmp_path) == older
        with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
            read_checkpoint(listed)

    def test_checksum_mismatch_raises(self, tmp_path):
        manifest = self._write_one(tmp_path)
        payload = manifest.with_suffix(".npz")
        raw = bytearray(payload.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        payload.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            read_checkpoint(manifest)

    @pytest.mark.parametrize("payload_kind", ["directory", "not-a-zip"])
    def test_unreadable_payload_raises(self, payload_kind, tmp_path):
        """A payload that exists but cannot be read — or holds bytes
        whose checksum the manifest records but that are no zip — is a
        typed error for the reader and an invalid checkpoint for
        discovery."""
        older = self._write_one(tmp_path, cycles=3)
        manifest = self._write_one(tmp_path, cycles=6)
        payload = manifest.with_suffix(".npz")
        payload.unlink()
        if payload_kind == "directory":
            payload.mkdir()
        else:
            payload.write_bytes(b"not a zip")
            record = json.loads(manifest.read_text())
            record["sha256"] = hashlib.sha256(b"not a zip").hexdigest()
            manifest.write_text(json.dumps(record))
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(manifest)
        if payload_kind == "directory":
            assert latest_checkpoint(tmp_path) == older

    def test_restored_arrays_are_writable_heap_arrays(self, tmp_path):
        """No copy on the way in: each restored member is writable and
        its memory belongs to a heap array of its own — no open file,
        no buffer shared with another member."""
        _, arrays = read_checkpoint(self._write_one(tmp_path))
        assert arrays
        for array in arrays.values():
            owner = array if array.base is None else array.base
            assert isinstance(owner, np.ndarray)
            assert owner.flags.owndata and owner.base is None
            assert array.flags.writeable
        members = list(arrays.values())
        for k, array in enumerate(members):
            for other in members[k + 1:]:
                assert not np.shares_memory(array, other)

    def test_prune_keeps_newest(self, tmp_path):
        engine = GossipEngine(_scenario(n=40, cycles=8))
        for _ in range(4):
            engine.run(2)
            engine.checkpoint(tmp_path)
        engine.close()
        assert len(list_checkpoints(tmp_path)) == 4
        removed = prune_checkpoints(tmp_path, keep=2)
        assert removed == 2
        remaining = list_checkpoints(tmp_path)
        assert [json.loads(p.read_text())["cycle"] for p in remaining] \
            == [6, 8]

    def test_auto_checkpoint_spec(self, tmp_path):
        """``CheckpointSpec(every_cycles=..., keep=...)`` writes on the
        cadence and enforces retention as the run goes."""
        engine = GossipEngine(_scenario(n=40, cycles=12))
        engine.run(12, checkpoint=CheckpointSpec(
            directory=tmp_path, every_cycles=3, keep=2))
        engine.close()
        remaining = list_checkpoints(tmp_path)
        assert [json.loads(p.read_text())["cycle"] for p in remaining] \
            == [9, 12]

    @pytest.fixture
    def refuse_build(self, monkeypatch):
        """Call it to fail the test if an engine is built afterwards."""
        def build(*args):
            raise AssertionError("restore built an engine")

        def refuse():
            for step in ("_allocate", "_bootstrap"):
                monkeypatch.setattr(GossipEngine, step, build)

        return refuse

    @pytest.mark.parametrize(
        "member", ["matrix", "free_slots", "rng_state", "epoch_results"]
    )
    def test_missing_member_fails_before_building(self, member, tmp_path,
                                                  refuse_build):
        """A payload whose checksum holds but which lacks a member every
        checkpoint has is refused before any engine or pool exists."""
        manifest, arrays = read_checkpoint(self._write_one(tmp_path))
        del arrays[member]
        written = write_checkpoint(tmp_path / "short", arrays, manifest)
        refuse_build()
        with pytest.raises(CheckpointError, match=repr(member)):
            GossipEngine.restore(_scenario(n=40), written)

    def test_scenario_validation_fails_fast(self, tmp_path, refuse_build):
        manifest = self._write_one(tmp_path)
        refuse_build()
        with pytest.raises(CheckpointError):
            GossipEngine.restore(_scenario(n=80), manifest)


def _members():
    """One of every member kind the engine writes, plus the layouts a
    caller may hand the writer: an empty free list, pickled payloads,
    a strided and a transposed view."""
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(60, 5))
    return {
        "matrix": matrix,
        "alive": rng.random(60) > 0.3,
        "mf_kind": rng.integers(0, 3, 60).astype(np.int8),
        "mf_partner": rng.integers(-1, 60, 60),
        "views": rng.integers(0, 60, (60, 8), dtype=np.int32),
        "phi_log": rng.integers(0, 9, (4, 60)),
        "attributes": rng.normal(size=(60, 5)),
        "mf_cache": rng.normal(size=(60, 5)),
        "free_slots": np.asarray([], dtype=np.int64),
        "rng_state": pickle_payload(rng.bit_generator.state),
        "epoch_results": pickle_payload([1.5, None, {"leaders": 2}]),
        "strided": matrix[::3, 2],
        "transposed": matrix.T,
    }


def _masked(raw):
    """``raw`` zip bytes with every member's DOS date/time zeroed, in
    its local header and in the central directory."""
    raw = bytearray(raw)
    for info in zipfile.ZipFile(io.BytesIO(bytes(raw))).infolist():
        raw[info.header_offset + 10:info.header_offset + 14] = bytes(4)
    start = raw.find(b"PK\x01\x02")
    while start >= 0:
        raw[start + 12:start + 16] = bytes(4)
        start = raw.find(b"PK\x01\x02", start + 4)
    return bytes(raw)


class TestWriter:
    """The payload writer: the ``np.savez`` format without its copies,
    the checksum of what is on disk, and no trace of a failed write."""

    def test_members_read_back_through_np_load(self, tmp_path):
        members = _members()
        manifest = write_checkpoint(tmp_path, members, {"cycle": 4})
        with np.load(manifest.with_suffix(".npz")) as bundle:
            assert sorted(bundle.files) == sorted(members)
            for name, array in members.items():
                loaded = bundle[name]
                assert loaded.dtype == array.dtype, name
                assert loaded.shape == array.shape, name
                assert loaded.tobytes() == array.tobytes(), name

    def test_manifest_checksum_is_the_file_on_disk(self, tmp_path):
        manifest = write_checkpoint(tmp_path, _members(), {"cycle": 4})
        on_disk = manifest.with_suffix(".npz").read_bytes()
        recorded = json.loads(manifest.read_text())["sha256"]
        assert recorded == hashlib.sha256(on_disk).hexdigest()

    def test_payload_is_what_np_savez_writes(self, tmp_path):
        """The format is pinned to numpy's own: the same dict through
        ``np.savez`` gives the same bytes but for the timestamps."""
        members = _members()
        manifest = write_checkpoint(tmp_path, members, {"cycle": 4})
        reference = io.BytesIO()
        np.savez(reference, **members)
        assert _masked(manifest.with_suffix(".npz").read_bytes()) == \
            _masked(reference.getvalue())

    @pytest.mark.parametrize("failure", ["object-member", "fsync", "hash"])
    def test_failed_write_leaves_the_previous_checkpoint(
        self, failure, tmp_path, monkeypatch
    ):
        previous = write_checkpoint(tmp_path, _members(), {"cycle": 4})
        members = _members()
        threads = set(threading.enumerate())
        if failure == "object-member":
            members["objects"] = np.array([{"a": 1}, None], dtype=object)
            expected = CheckpointError
        else:
            def broken(*args):
                raise OSError(f"injected {failure} failure")

            if failure == "fsync":
                monkeypatch.setattr(os, "fsync", broken)
            else:
                monkeypatch.setattr(
                    checkpoint_module, "_sha256_file", broken
                )
            expected = OSError
        with pytest.raises(expected):
            write_checkpoint(tmp_path, members, {"cycle": 8})
        monkeypatch.undo()
        assert set(threading.enumerate()) == threads
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            previous.name, previous.with_suffix(".npz").name
        ]
        assert latest_checkpoint(tmp_path) == previous


class TestSlotTable:
    """``_SLOT_STATE`` is complete, and growth honours it."""

    #: per-slot arrays that are not rows, with the reason: static-only
    #: (Scenario rejects them under churn / epochs, so they never grow)
    #: and derived from the scenario alone, no randomness drawn (so a
    #: checkpoint need not carry them)
    REDERIVED = {"_isolated"}

    def _static_engine(self):
        """A static overlay with a zero-degree row and an eclipse
        adversary: the whitelisted array and the static-only eclipse
        row exist."""
        n = 40
        edges = [(i, i + 1) for i in range(n - 2)]
        return GossipEngine(Scenario(
            AdjacencyTopology.from_edges(n, edges), np.arange(float(n)),
            adversary=AdversarySpec(kind="eclipse", nodes=(3,)), seed=3,
        ))

    @pytest.mark.parametrize("build", ["armed", "static"])
    def test_every_per_slot_array_is_a_row(self, build):
        engine = (GossipEngine(_armed()) if build == "armed"
                  else self._static_engine())
        try:
            # at construction, before growth can tell a forgotten
            # array from the others by its length; every holder of
            # rows (engine, message channel, Newscast views) is scanned
            rows = {attr for attr, *_ in _SLOT_STATE}
            holders = {id(holder): holder
                       for holder, *_ in engine._slot_rows()}.values()
            per_slot = {
                name for holder in holders
                for name, value in vars(holder).items()
                if isinstance(value, np.ndarray)
                and len(value) == engine.capacity
            }
            assert per_slot - rows - {"_matrix"} <= self.REDERIVED
            if build == "armed":
                # fully armed: no row but the static-only eclipse
                # captors is left out of the audit
                assert rows - {"_eclipse"} <= per_slot
                assert not per_slot & self.REDERIVED
            else:
                assert self.REDERIVED | {"_eclipse"} <= per_slot
        finally:
            engine.close()

    def test_growth_extends_every_row_with_its_fill(self):
        engine = GossipEngine(_armed())
        try:
            engine.run(2)
            old = engine.capacity
            engine._lifecycle.ensure_capacity(old + 1)
            assert engine.capacity > old
            assert len(engine._matrix) == engine.capacity
            widths = {"views": (8,)}  # _armed's view_size
            held_rows = list(engine._slot_rows())
            # every row but the static-only eclipse captors
            assert len(held_rows) == len(_SLOT_STATE) - 1
            for holder, (attr, key, dtype, fill, per_column, _), _ in (
                held_rows
            ):
                held = getattr(holder, attr)
                assert held.dtype == dtype, key
                assert held.shape == (engine.capacity,) + (
                    (len(engine.instance_names),) if per_column
                    else widths.get(key, ())
                ), key
                assert (held[old:] == fill).all(), key
            # and the next cycles run on the grown state
            engine.arm_standard_monitors(strict=True)
            engine.run(3)
        finally:
            engine.close()

    @pytest.mark.parametrize("key, holder_of, attr", [
        pytest.param("mf_due", lambda engine: engine._channel, "_mf_due",
                     id="mf_due"),
        pytest.param("views", lambda engine: engine.partner_provider.views,
                     "views", id="views"),
    ])
    def test_structure_monitor_flags_a_forgotten_growth(self, key,
                                                        holder_of, attr):
        """A per-slot array left at the old capacity is a violation on
        the cycle it happens, whoever holds the row."""
        engine = GossipEngine(_armed())
        monitor = engine.register_monitor(StructureMonitor())
        try:
            engine.run(1)
            assert not engine.invariant_report().violations
            holder = holder_of(engine)
            setattr(holder, attr, getattr(holder, attr)[:-1])
            findings = monitor.observe(engine, engine.cycle, {}, False)
            assert [f.message for f in findings if f.is_violation] == [
                f"per-slot array {key!r} holds {engine.capacity - 1} "
                f"slots, capacity is {engine.capacity}"
            ]
        finally:
            engine.close()

    @pytest.mark.parametrize("edit, match", [
        pytest.param(_row("mf_partner", _past_capacity), "outside",
                     id="mf_partner-past-capacity"),
        pytest.param(_row("mf_partner", lambda row: row - 1), "outside",
                     id="mf_partner-below-none"),
        pytest.param(_row("mf_cache", lambda row: np.hstack([row, row])),
                     "shape", id="mf_cache-wrong-width"),
        pytest.param(_row("mf_sent", lambda row: row[:, :0]), "shape",
                     id="mf_sent-wrong-width"),
        pytest.param(_row("views", lambda row: row[:, 1:]), "shape",
                     id="views-wrong-width"),
        pytest.param(_row("adv_mask", lambda row: row[:-1]), "shape",
                     id="adv_mask-short"),
        pytest.param(_row("views", lambda row: np.full_like(row, -1)),
                     "unseeded", id="views-unseeded"),
        pytest.param(_row("free_slots", lambda row: np.append(row, 10**6)),
                     r"outside \[0, top", id="free-slot-past-top"),
        pytest.param(_row("free_slots", lambda row: np.append(row, -5)),
                     r"outside \[0, top", id="free-slot-negative"),
        pytest.param(_row("free_slots", lambda row: np.append(row, [0, 0])),
                     "duplicate", id="free-slot-duplicate"),
        pytest.param(_row("free_slots", lambda row: np.append(row, 0)),
                     "still alive", id="free-slot-alive"),
        pytest.param(lambda manifest, arrays: manifest.update(
                         top=manifest["capacity"] + 1),
                     "past capacity", id="top-past-capacity"),
        pytest.param(lambda manifest, arrays: manifest.pop("top"),
                     "'top' is None", id="counter-missing"),
        pytest.param(lambda manifest, arrays: manifest.update(epoch=True),
                     "'epoch' is True", id="counter-bool"),
        pytest.param(lambda manifest, arrays: manifest.update(cycle=2.5),
                     "'cycle' is 2.5", id="counter-float"),
    ])
    def test_restore_checks_every_row(self, edit, match, tmp_path):
        """Every loaded row holds a slot per matrix row at the width and
        dtype the engine keeps, a row of slot ids stays in ``[-1,
        rows)``, the free list and ``top`` pass the structure audit and
        every counter is an int in range."""
        with GossipEngine(_armed()) as engine:
            engine.run(3)
            manifest, arrays = read_checkpoint(engine.checkpoint(tmp_path))
        edit(manifest, arrays)
        written = write_checkpoint(tmp_path / "edited", arrays, manifest)
        with pytest.raises(CheckpointError, match=match):
            GossipEngine.restore(_armed(), written)


class TestCounterRules:
    """The counters a restore takes follow from the rules that wrote
    them. Epochs restart whenever ``cycle % cycles_per_epoch == 0``, so
    ``cycle`` fixes ``epoch``, its start cycle and which epochs are
    finalized; a zero ``mask_version`` promises that no slot ever left
    (the loss-free fast path's premise)."""

    E = 4

    def _epoch_scenario(self):
        n = 200
        return Scenario(
            CompleteTopology(n), np.arange(float(n)), seed=17,
            churn=ChurnTrace.constant(20, 3, 3),
            epochs=EpochSpec(
                cycles_per_epoch=self.E,
                finalize=lambda view: (view.epoch, view.size_at_start),
            ),
        )

    @pytest.mark.parametrize("key, value", [
        pytest.param(None, None, id="unedited"),
        pytest.param("last_finalized_epoch", lambda m: 9,
                     id="last_finalized-ahead"),
        pytest.param("last_finalized_epoch", lambda m: -1,
                     id="last_finalized-behind"),
        pytest.param("epoch", lambda m: 7, id="epoch-ahead"),
        pytest.param("epoch", lambda m: 0, id="epoch-behind"),
        pytest.param("epoch_start_cycle", lambda m: 0,
                     id="epoch_start-earlier"),
        pytest.param("size_at_epoch_start", lambda m: m["top"] + 1,
                     id="size_at_start-past-top"),
    ])
    def test_restore_refuses_counters_the_epoch_rule_cannot_reach(
            self, key, value, tmp_path):
        with GossipEngine(self._epoch_scenario()) as engine:
            engine.run(20)
            straight = engine.epoch_results
        with GossipEngine(self._epoch_scenario()) as engine:
            engine.run(6)
            manifest, arrays = read_checkpoint(engine.checkpoint(tmp_path))
        assert (manifest["epoch"], manifest["epoch_start_cycle"],
                manifest["last_finalized_epoch"]) == (1, 4, 0)
        if key is not None:
            manifest[key] = value(manifest)
        written = write_checkpoint(tmp_path / "edited", arrays, manifest)
        if key is not None:
            with pytest.raises(CheckpointError, match=repr(key)):
                GossipEngine.restore(self._epoch_scenario(), written)
            return
        with GossipEngine.restore(self._epoch_scenario(), written) as engine:
            engine.arm_standard_monitors(strict=True)
            assert len(engine.run(14).epoch_results) == 4
            assert engine.epoch_results == straight

    def test_restore_refuses_a_zero_mask_version_over_a_dead_slot(
            self, tmp_path):
        n = 200
        scenario = Scenario(
            CompleteTopology(n), np.arange(float(n)), seed=17,
            crash_plan=CrashPlan({3: list(range(0, n, 4))}),
        )
        with GossipEngine(scenario) as engine:
            engine.run(5)
            manifest, arrays = read_checkpoint(engine.checkpoint(tmp_path))
        assert manifest["mask_version"] == 50
        manifest["mask_version"] = 0
        written = write_checkpoint(tmp_path / "edited", arrays, manifest)
        with pytest.raises(CheckpointError, match="'mask_version'"):
            GossipEngine.restore(scenario, written)


#: the fuzzed members: every plain array an armed checkpoint holds (the
#: pickled ones — RNG state, epoch results, message counts — are
#: trusted by design) and every counter of its manifest
FUZZ_MEMBERS = ("matrix", "free_slots") + tuple(
    key for _, key, *_ in _SLOT_STATE if key != "eclipse"
)
FUZZ_COUNTERS = tuple(key for _, key, _ in _COUNTERS)
FUZZ_EDITS = ("dtype", "shape", "out-of-range", "duplicate", "negative",
              "zero")


def _fuzz_edit(value, edit, at, others):
    """``value`` — an array member or a counter — with one ``edit``;
    ``at`` picks the entry, or the counter (of ``others``) to copy."""
    if not isinstance(value, np.ndarray):
        return {"dtype": value + 0.5, "shape": [value], "out-of-range": 10**6,
                "duplicate": others[at % len(others)], "negative": -5,
                "zero": 0}[edit]
    if edit == "dtype":
        return value.astype(np.float32)
    if edit == "shape":
        return value[:-1]
    value = value.copy()
    flat = value.reshape(-1)
    at %= flat.size
    entry = {"out-of-range": len(value), "duplicate": flat[at - 1],
             "negative": -5, "zero": 0}[edit]
    # cast as numpy casts (wrapping an int8, -5 -> True in a bool row)
    flat[at] = np.array(entry).astype(value.dtype)
    return value


class TestEditedCheckpoint:
    """Fuzz: a real armed checkpoint (Newscast, churn, retry, epochs,
    a free list from a crash wave) with one plain array or counter
    edited is refused with :class:`CheckpointError`, or it restores and
    runs under strict monitors — no other exception escapes."""

    _source = {}

    def _checkpoint(self, tmp_path_factory):
        if not self._source:
            directory = tmp_path_factory.mktemp("fuzz")
            with GossipEngine(_armed()) as engine:
                engine.run(11)
                engine.crash(range(0, engine.capacity, 11))
                manifest, arrays = read_checkpoint(
                    engine.checkpoint(directory / "source")
                )
            pickled = {"rng_state", "epoch_results", "mf_stats"}
            assert set(arrays) - pickled == set(FUZZ_MEMBERS)
            assert len(arrays["free_slots"]) > 0
            self._source.update(manifest=manifest, arrays=arrays,
                                directory=directory)
        return self._source

    @settings(max_examples=70, deadline=None, derandomize=True)
    @given(target=st.sampled_from(FUZZ_MEMBERS + FUZZ_COUNTERS),
           edit=st.sampled_from(FUZZ_EDITS),
           at=st.integers(min_value=0, max_value=2**16))
    def test_refused_or_runs(self, target, edit, at, tmp_path_factory):
        source = self._checkpoint(tmp_path_factory)
        manifest, arrays = source["manifest"], dict(source["arrays"])
        if target in arrays:
            arrays[target] = _fuzz_edit(arrays[target], edit, at, None)
        written = write_checkpoint(source["directory"], arrays, manifest)
        if target not in arrays:
            # the manifest is no part of the checksum: edit it in place
            record = json.loads(written.read_text())
            record[target] = _fuzz_edit(
                record[target], edit, at,
                [record[key] for key in FUZZ_COUNTERS],
            )
            written.write_text(json.dumps(record))
        try:
            engine = GossipEngine.restore(_armed(), written)
        except CheckpointError:
            return
        with engine:
            engine.arm_standard_monitors(strict=True)
            engine.run(5)


class TestComposedRoundTrip:
    """Checkpoint-resume identity under composition: every combination
    of the features that add per-slot state, over churn that grows and
    recycles slots and all three message faults. One in-process
    backend suffices here — the state is the engine's, and
    :class:`TestRoundTrip` covers the backends."""

    @pytest.mark.parametrize("epochs", [False, True],
                             ids=["no-epochs", "epochs"])
    @pytest.mark.parametrize("retry", sorted(RETRIES))
    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    @pytest.mark.parametrize("membership", [None, "newscast"],
                             ids=["oracle", "newscast"])
    def test_resume_is_bitwise(self, membership, adversary, retry, epochs,
                               tmp_path):
        full, resumed = _round_trip(
            lambda: _armed(membership=membership, adversary=adversary,
                           retry=retry, epochs=epochs),
            total=20, split=11, tmp_path=tmp_path,
        )
        try:
            assert full.capacity == 337  # grew twice on the way
            np.testing.assert_equal(_state(resumed), _state(full))
        finally:
            full.close()
            resumed.close()


    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("overlay", ["complete", "ring"])
    def test_eclipse_resume_is_bitwise(self, overlay, backend, tmp_path):
        """The eclipse captors are a slot row: drawn from the RNG on the
        complete overlay, structural on an adjacency one, and either
        way restored from the checkpoint, not re-derived."""
        n = 120
        topology = (CompleteTopology(n) if overlay == "complete"
                    else RingTopology(n, 4))
        values = np.random.default_rng(5).normal(12.0, 3.0, n)

        def scenario():
            return Scenario(
                topology, values, seed=31, backend=backend,
                adversary=AdversarySpec(kind="eclipse", fraction=0.1,
                                        start=3),
            )

        full, resumed = _round_trip(scenario, total=14, split=6,
                                    tmp_path=tmp_path)
        try:
            assert (full._adversary._eclipse >= 0).any()
            assert np.array_equal(resumed._adversary._eclipse,
                                  full._adversary._eclipse)
            assert _digest(resumed) == _digest(full)
        finally:
            full.close()
            resumed.close()


class TestRestorePath:
    """Restore allocates the engine around the checkpoint's matrix and
    loads the rest: it builds no initial state and draws nothing."""

    def test_restore_never_builds_the_initial_matrix(self, tmp_path,
                                                     monkeypatch):
        """Neither the scenario's initial matrix nor the bootstrap —
        adversary draw, channel rows, Newscast views, attribute copy —
        runs on restore, and the resumed run still ends bitwise where
        the uninterrupted one does."""
        with GossipEngine(_armed()) as full:
            full.run(20)
        with GossipEngine(_armed()) as part:
            part.run(11)
            part.checkpoint(tmp_path)

        def refuse(self):
            raise AssertionError("restore built the initial state")

        monkeypatch.setattr(Scenario, "initial_matrix", refuse)
        monkeypatch.setattr(GossipEngine, "_bootstrap", refuse)
        with GossipEngine.restore(_armed(), tmp_path) as resumed:
            resumed.run(9)
            assert _digest(resumed) == _digest(full)

    @pytest.mark.parametrize("resume_backend", ["sharded:2", "vectorized"])
    def test_sharded_resume_after_growth(self, resume_backend, tmp_path):
        """A pool run checkpointed after churn grew its capacity twice
        resumes on the pool and in-process without a bit of drift."""
        full, resumed = _round_trip(
            lambda: _armed(backend="sharded:2"), total=20, split=11,
            tmp_path=tmp_path, resume_backend=resume_backend,
        )
        try:
            (manifest,) = list_checkpoints(tmp_path)
            assert json.loads(manifest.read_text())["capacity"] == 337
            np.testing.assert_equal(_state(resumed), _state(full))
        finally:
            full.close()
            resumed.close()


class TestOlderBuild:
    """``data/ck-0000000007.*`` is ``_armed(n=60)`` checkpointed at
    cycle 7 (capacity 90, 26 exchanges pending) by commit 046bcea, the
    last build whose ``checkpoint`` / ``_load_state`` enumerated the
    arrays by hand — written from a ``git archive`` of that commit with
    ``engine.run(7); engine.checkpoint(directory)`` — and the digest is
    what that build's own engine reached 13 cycles later. The format
    has no version but 1: a build that cannot continue this run bitwise
    has changed it.

    ``GOLDEN`` pins whole runs the same way: what a ``git archive`` of
    586a02a reached, per retry policy x epochs x partner provider —
    except the two retransmit keys without epochs, re-pinned when a
    departure began to mark the episodes aimed at the departed node
    unreachable (a joiner in its slot used to answer them). The
    equivalence suite compares the backends with *each other*, and the
    fault, retry and churn passes are engine code all of them run — a
    write reordered there moves every backend together and only an
    absolute digest sees it.

    ``STATIC`` pins two static runs the same way, from a ``git archive``
    of f88819e: the 20-cycle digest and the manifest of the cycle-5
    checkpoint, ``sha256`` left out — every ``GOLDEN`` key is a churn
    run, and a static checkpoint writes its free list and epoch
    counters at their start values."""

    DATA = Path(__file__).parent / "data"
    REACHED = (
        "37a52669664e4841c38f974c369d9bbf6359aeb69a3b1881450fe2172161bb1c"
    )
    #: (provider, retry, epochs) -> ``_digest`` after ``_armed`` ran 19
    #: cycles, lost every 11th slot to ``crash()`` and ran one more
    GOLDEN = {
        ("oracle", "no-retry", False):
            "83ff6ce2ba946d48724c1b629c242ba6cf29a22774bc9cdbf8d1d3699dcc81b0",
        ("oracle", "no-retry", True):
            "70d1faa0cd25b6984368312d8b0e7dcb5f6f980ab74896ec69c6cf509c717bcd",
        ("oracle", "redraw", False):
            "84fe3bf9466cfad74ed5b0696f74f24eef6d6eb3e2ba373ba0616ec73ae074d8",
        ("oracle", "redraw", True):
            "dda76164557e902289a042ab37150a5c9b4d731a901f520c9e45cd4c51006892",
        ("oracle", "retransmit", False):
            "b89097278d22c07085230a31d1a63d626b14609351d9e28c23ef93278a4a93d8",
        ("oracle", "retransmit", True):
            "507681a9d0b09d17cdf7e470944f7a333ae84959b20a282812811e42e243b86c",
        ("newscast", "no-retry", False):
            "1f349145d014293decbe0195b7af2a76193b4ed09db02e50d58bd961fcaf74cb",
        ("newscast", "no-retry", True):
            "e5ccd404acff6f7b3d81414253ae9aa16aa5e23095e8b3171b53edffb7310a7a",
        ("newscast", "redraw", False):
            "552e4da6606dffae4b3cc8d8f55727b88a1bda11ab2aff781972c3783773e01c",
        ("newscast", "redraw", True):
            "6b5a07f1d564a9b733eb136bff68128e2af4e523d300474085f227d0dcef9c88",
        ("newscast", "retransmit", False):
            "bf1e58f119105cf4bb0f24d3b4916f751b8a16e941223ac6c697b430b2c88100",
        ("newscast", "retransmit", True):
            "a60e104176eb2fe4374582d7e3b8d3e3b5a59540c1b21465dbd610d9d3d252b6",
    }

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_restores_and_finishes_bitwise(self, backend):
        with GossipEngine.restore(
            _armed(n=60, backend=backend), self.DATA
        ) as engine:
            assert (engine.cycle, engine.capacity) == (7, 90)
            assert engine.pending_retry_count == 26
            engine.run(13)
            assert _digest(engine) == self.REACHED

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("provider, retry, epochs", sorted(GOLDEN))
    def test_fresh_runs_reach_the_pinned_states(self, provider, retry,
                                                epochs, backend):
        """Without the crash wave the free list would end empty (every
        cycle admits more than leave): 30 slots die at once, the last
        cycle's joiners take its 3 leavers and the 9 newest of them,
        newest first, and the rest stay listed in crash order."""
        with GossipEngine(_armed(
            backend=backend, retry=retry, epochs=epochs,
            membership=provider if provider == "newscast" else None,
        )) as engine:
            engine.run(19)
            engine.crash(range(0, engine.capacity, 11))
            engine.run(1)
            assert engine.capacity == 337
            assert engine.structure_snapshot()["free_slots"] == tuple(
                range(0, 231, 11)
            )
            assert _digest(engine) == self.GOLDEN[provider, retry, epochs]

    #: static kind -> (``_digest`` after 20 cycles, the cycle-5
    #: checkpoint's members, its manifest minus ``sha256`` and backend)
    STATIC = {
        "eclipse": (
            "93aad29503bce9f54e34f2e2a3e9e69cc1c5f9bf108842974016c6819ac235f2",
            {"matrix", "free_slots", "rng_state", "epoch_results", "alive",
             "participant", "adv_mask", "eclipse"},
            {"bit_generator": "PCG64", "capacity": 60, "cycle": 5,
             "dynamic": False, "epoch": -1, "epoch_start_cycle": 0,
             "format": "repro-checkpoint", "instances": ["mean"],
             "instances_rebuilt": False, "k": 1,
             "last_finalized_epoch": -1, "mask_version": 0,
             "membership": "oracle", "n": 60, "pair_mode": False,
             "payload": "ck-0000000005.npz", "size_at_epoch_start": 0,
             "top": 60, "version": 1},
        ),
        "inject": (
            "982c6215dec4a2261e93d4401f665da08a34e16279cb086ade5b3872da6cdedf",
            {"matrix", "free_slots", "rng_state", "epoch_results", "alive",
             "participant", "adv_mask"},
            {"bit_generator": "PCG64", "capacity": 60, "cycle": 5,
             "dynamic": False, "epoch": -1, "epoch_start_cycle": 0,
             "format": "repro-checkpoint", "instances": ["mean"],
             "instances_rebuilt": False, "k": 1,
             "last_finalized_epoch": -1, "mask_version": 15,
             "membership": "oracle", "n": 60, "pair_mode": False,
             "payload": "ck-0000000005.npz", "size_at_epoch_start": 0,
             "top": 60, "version": 1},
        ),
    }

    @staticmethod
    def _static(kind, backend):
        """``eclipse`` on a ring from cycle 3, or ``inject`` on the
        complete overlay with every 4th node crashed at cycle 3."""
        n = 60
        values = np.random.default_rng(5).normal(12.0, 3.0, n)
        if kind == "eclipse":
            return Scenario(
                RingTopology(n), values, seed=31, backend=backend,
                adversary=AdversarySpec(kind="eclipse", fraction=0.1,
                                        start=3),
            )
        return Scenario(
            CompleteTopology(n), values, seed=29, backend=backend,
            adversary=AdversarySpec(kind="inject", fraction=0.1,
                                    value=40.0),
            crash_plan=CrashPlan({3: list(range(0, n, 4))}),
        )

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("kind", sorted(STATIC))
    def test_static_runs_reach_the_pinned_states(self, kind, backend,
                                                 tmp_path):
        digest, members, fields = self.STATIC[kind]
        with GossipEngine(self._static(kind, backend)) as engine:
            engine.run(20)
            assert _digest(engine) == digest
        with GossipEngine(self._static(kind, backend)) as engine:
            engine.run(5)
            manifest, arrays = read_checkpoint(engine.checkpoint(tmp_path))
        manifest.pop("sha256")
        assert manifest == {**fields, "backend": backend}
        assert set(arrays) == members
