"""Adversary suite: spec validation, semantics, backend equivalence.

Every adversarial effect is engine-side (the adversary set is drawn
from the engine RNG, corruption is an engine matrix write, filtering
joins the fused ok-mask, lies apply at observation time), so the
bitwise backend-equivalence contract must hold under any
:class:`AdversarySpec` — that sweep is the core of this module.
Alongside it: constructor validation, the per-kind semantics (inject
poisons state, lying does not, partition seals the boundary, eclipse
redirects partner draws) and the fraction edge cases 0.0 / 1.0 /
single explicit node.
"""

import numpy as np
import pytest

from repro.core import MeanAggregate, MinAggregate
from repro.errors import ConfigurationError
from repro.kernel import (
    ADVERSARY_KINDS,
    AdversarySpec,
    ChurnTrace,
    EpochSpec,
    GossipEngine,
    MultiAggregateSpec,
    PairProtocolSpec,
    Scenario,
)
from repro.topology import CompleteTopology, RandomRegularTopology

from ..recording import RecordingBackend

N = 400
CYCLES = 6
SEED = 97


def make_scenario(spec, backend="reference", topology=None, **kwargs):
    topology = topology if topology is not None else CompleteTopology(N)
    values = np.random.default_rng(SEED).normal(10.0, 4.0, topology.n)
    return Scenario(
        topology, values, adversary=spec, seed=SEED, backend=backend, **kwargs
    )


def run_snapshot(scenario, cycles=CYCLES):
    """Run to completion and return the bitwise-comparable snapshot."""
    engine = GossipEngine(scenario)
    try:
        result = engine.run(cycles)
        return (
            engine.matrix,
            result.exchange_counts,
            engine.reported_column(),
            engine.adversary_mask,
        )
    finally:
        engine.close()


def assert_snapshots_equal(ref, other):
    assert np.array_equal(ref[0], other[0])
    assert ref[1] == other[1]
    assert np.array_equal(ref[2], other[2])
    assert np.array_equal(ref[3], other[3])


class TestSpecValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            AdversarySpec(kind="lying", fraction=0.1, start=5, end=5)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            AdversarySpec(kind="lying", nodes=(3, 3, 5))

    @pytest.mark.parametrize("leader", [5, -1, True, 1.5])
    def test_counting_leader_must_be_a_node_id(self, leader):
        """A bool leader used to index the indicator as a mask and seed
        every node with 1 (the count read N = 1)."""
        with pytest.raises(ConfigurationError, match="node id"):
            MultiAggregateSpec.counting(5, leader=leader)

    def test_nodes_normalized_sorted(self):
        spec = AdversarySpec(kind="lying", nodes=[9, 1, 4])
        assert spec.nodes == (1, 4, 9)

    def test_scenario_rejects_out_of_range_nodes(self):
        spec = AdversarySpec(kind="lying", nodes=(N + 7,))
        with pytest.raises(ConfigurationError, match="exceed"):
            make_scenario(spec)

    def test_eclipse_rejected_with_churn(self):
        spec = AdversarySpec(kind="eclipse", fraction=0.1)
        with pytest.raises(ConfigurationError, match="eclipse"):
            make_scenario(
                spec,
                churn=ChurnTrace.constant(CYCLES, 2, 2),
            )

    def test_eclipse_rejected_with_epochs(self):
        spec = AdversarySpec(kind="eclipse", fraction=0.1)
        with pytest.raises(ConfigurationError, match="eclipse"):
            make_scenario(spec, epochs=EpochSpec(cycles_per_epoch=5))

    def test_pair_mode_rejects_adversary(self):
        spec = AdversarySpec(kind="lying", fraction=0.1)
        with pytest.raises(ConfigurationError, match="adversaries"):
            make_scenario(spec, pair_protocol=PairProtocolSpec(selector="seq"))


class TestSpecResolution:
    def test_active_window(self):
        spec = AdversarySpec(kind="lying", fraction=0.1, start=3, end=7)
        assert [spec.active_at(c) for c in (0, 2, 3, 6, 7, 40)] == [
            False, False, True, True, False, False,
        ]

    def test_open_window_never_deactivates(self):
        spec = AdversarySpec(kind="lying", fraction=0.1)
        assert spec.active_at(0) and spec.active_at(10**6)

    def test_fraction_zero_draws_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        ids = AdversarySpec(kind="lying", fraction=0.0).resolve_nodes(N, rng)
        assert len(ids) == 0
        # no RNG consumed: downstream draws stay aligned with the
        # adversary-free run
        assert rng.bit_generator.state["state"]["state"] == before

    def test_fraction_one_is_everyone(self):
        rng = np.random.default_rng(0)
        ids = AdversarySpec(kind="lying", fraction=1.0).resolve_nodes(N, rng)
        assert np.array_equal(ids, np.arange(N))

    def test_explicit_nodes_skip_rng(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        spec = AdversarySpec(kind="lying", nodes=(7, 2))
        assert np.array_equal(spec.resolve_nodes(N, rng), [2, 7])
        assert rng.bit_generator.state["state"]["state"] == before

    def test_fraction_rounds_to_count(self):
        rng = np.random.default_rng(0)
        ids = AdversarySpec(kind="lying", fraction=0.25).resolve_nodes(
            400, rng
        )
        assert len(ids) == 100
        assert np.array_equal(ids, np.sort(ids))
        assert len(np.unique(ids)) == 100


class TestEclipseRedirects:
    def test_csr_smallest_adversarial_neighbor(self):
        topology = RandomRegularTopology(60, 6, seed=5)
        mask = np.zeros(60, dtype=bool)
        mask[[4, 17, 33]] = True
        spec = AdversarySpec(kind="eclipse", nodes=(4, 17, 33))
        redirect = spec.eclipse_redirects(
            topology, mask, np.random.default_rng(0)
        )
        assert redirect.shape == (60,)
        assert (redirect[mask] == -1).all()
        for node in np.flatnonzero(~mask):
            captors = [
                nb for nb in np.asarray(topology.neighbors(node)) if mask[nb]
            ]
            expected = min(captors) if captors else -1
            assert redirect[node] == expected

    def test_complete_overlay_captures_everyone(self):
        topology = CompleteTopology(50)
        mask = np.zeros(50, dtype=bool)
        mask[[10, 20]] = True
        redirect = AdversarySpec(kind="eclipse", fraction=0.04).eclipse_redirects(
            topology, mask, np.random.default_rng(1)
        )
        honest = ~mask
        assert np.isin(redirect[honest], [10, 20]).all()
        assert (redirect[mask] == -1).all()

    @pytest.mark.parametrize("count", [0, 50])
    def test_degenerate_sets_capture_nothing(self, count):
        topology = CompleteTopology(50)
        mask = np.zeros(50, dtype=bool)
        mask[:count] = True
        redirect = AdversarySpec(kind="eclipse", fraction=1.0).eclipse_redirects(
            topology, mask, np.random.default_rng(2)
        )
        assert (redirect == -1).all()


# one sharded worker count is exercised per kind right here; the full
# 1/2/4 ladder rides benchmarks/bench_adversary.py where process spawn
# cost is amortized over the bigger run
EQUIVALENCE_BACKENDS = ("vectorized", "sharded:1", "sharded:2", "sharded:4")


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", EQUIVALENCE_BACKENDS)
    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_bitwise_under_every_kind(self, kind, backend):
        topology = (
            RandomRegularTopology(N, 8, seed=SEED)
            if kind == "eclipse"
            else None
        )
        spec = AdversarySpec(kind=kind, fraction=0.1, value=100.0)
        ref = run_snapshot(make_scenario(spec, "reference", topology))
        other = run_snapshot(make_scenario(spec, backend, topology))
        assert_snapshots_equal(ref, other)

    @pytest.mark.parametrize("kind", ("inject", "lying", "partition"))
    def test_bitwise_under_churn(self, kind):
        spec = AdversarySpec(kind=kind, fraction=0.1, value=100.0)
        churn = ChurnTrace.constant(CYCLES, 5, 3)
        ref = run_snapshot(make_scenario(spec, "reference", churn=churn))
        vec = run_snapshot(make_scenario(spec, "vectorized", churn=churn))
        assert_snapshots_equal(ref, vec)

    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_fraction_zero_is_bitwise_no_adversary(self, kind):
        spec = AdversarySpec(kind=kind, fraction=0.0, value=100.0)
        with_spec = run_snapshot(make_scenario(spec))
        without = run_snapshot(make_scenario(None))
        assert np.array_equal(with_spec[0], without[0])
        assert with_spec[1] == without[1]
        assert np.array_equal(with_spec[2], without[2])
        assert not with_spec[3].any()


class TestFractionEdgeCases:
    def test_everyone_lying_reports_only_the_lie(self):
        spec = AdversarySpec(kind="lying", fraction=1.0, value=-3.0)
        engine = GossipEngine(make_scenario(spec))
        engine.run(2)
        assert (engine.reported_column() == -3.0).all()
        # ... but the state itself converged honestly
        assert engine.alive_column().mean() == pytest.approx(10.0, abs=1.0)
        assert len(engine.honest_column()) == 0

    def test_everyone_injecting_fixes_the_state(self):
        spec = AdversarySpec(kind="inject", fraction=1.0, value=42.0)
        engine = GossipEngine(make_scenario(spec))
        engine.run(1)
        assert (engine.matrix == 42.0).all()

    def test_single_explicit_node(self):
        spec = AdversarySpec(kind="lying", nodes=(17,), value=1e6)
        engine = GossipEngine(make_scenario(spec))
        engine.run(2)
        mask = engine.adversary_mask
        assert np.flatnonzero(mask).tolist() == [17]
        reports = engine.reported_column()
        assert reports[17] == 1e6
        assert (reports[~mask] != 1e6).all()
        assert engine.honest_mask.sum() == N - 1


class TestLyingSemantics:
    def test_state_is_untouched(self):
        # drawing the adversary set consumes engine RNG, so the honest
        # baseline must draw the same mask: a never-active window keeps
        # the RNG stream aligned while disarming the lie
        spec = AdversarySpec(kind="lying", fraction=0.2, value=1e9)
        inert = AdversarySpec(
            kind="lying", fraction=0.2, value=1e9, start=CYCLES + 1
        )
        lied = run_snapshot(make_scenario(spec))
        honest = run_snapshot(make_scenario(inert))
        # identical trajectories: only the reported view differs
        assert np.array_equal(lied[0], honest[0])
        assert lied[1] == honest[1]
        assert not np.array_equal(lied[2], honest[2])

    def test_window_bounds_the_lie(self):
        spec = AdversarySpec(
            kind="lying", nodes=(0,), value=1e9, start=1, end=2
        )
        engine = GossipEngine(make_scenario(spec))
        assert engine.reported_column()[0] != 1e9  # cycle 0: not yet
        engine.run(1)
        assert engine.reported_column()[0] == 1e9  # cycle 1: active
        engine.run(1)
        assert engine.reported_column()[0] != 1e9  # cycle 2: expired

    def test_lying_applies_to_every_instance(self):
        spec = AdversarySpec(kind="lying", fraction=0.25, value=7.0)
        engine = GossipEngine(
            make_scenario(
                spec,
                aggregates={"mean": MeanAggregate(), "min": MinAggregate()},
            )
        )
        engine.run(2)
        mask = engine.adversary_mask
        for name in ("mean", "min"):
            assert (engine.reported_column(name)[mask] == 7.0).all()


class TestInjectSemantics:
    def test_never_active_leaves_state_honest(self):
        # an inert inject run must match a state-neutral (lying) run
        # with the same mask draw bitwise: outside its window the
        # adversary touches nothing
        spec = AdversarySpec(
            kind="inject", fraction=0.2, value=1e9, start=CYCLES + 1
        )
        neutral = AdversarySpec(
            kind="lying", fraction=0.2, value=1e9, start=CYCLES + 1
        )
        inert = run_snapshot(make_scenario(spec))
        baseline = run_snapshot(make_scenario(neutral))
        assert np.array_equal(inert[0], baseline[0])
        assert inert[1] == baseline[1]

    def test_injected_mass_poisons_honest_state(self):
        spec = AdversarySpec(kind="inject", fraction=0.2, value=1000.0)
        engine = GossipEngine(make_scenario(spec))
        engine.run(CYCLES)
        # honest values drift toward the injected mass — inject is the
        # attack that robust read-outs can NOT undo
        assert engine.honest_column().mean() > 50.0


class TestPartitionSemantics:
    def test_no_exchange_crosses_the_boundary(self):
        spec = AdversarySpec(kind="partition", fraction=0.3)
        recorder = RecordingBackend()
        engine = GossipEngine(make_scenario(spec, backend=recorder))
        engine.run(CYCLES)
        mask = engine.adversary_mask
        exchanges = recorder.exchanges()
        assert len(exchanges) > 0
        assert np.array_equal(mask[exchanges[:, 0]], mask[exchanges[:, 1]])

    def test_honest_mass_is_conserved(self):
        spec = AdversarySpec(kind="partition", fraction=0.3)
        engine = GossipEngine(make_scenario(spec))
        before = engine.honest_column().sum()
        engine.run(CYCLES)
        after = engine.honest_column().sum()
        assert after == pytest.approx(before, rel=1e-12)


class TestEclipseSemantics:
    def test_captured_initiators_reach_only_their_captor(self):
        topology = RandomRegularTopology(N, 8, seed=SEED)
        spec = AdversarySpec(kind="eclipse", fraction=0.1)
        recorder = RecordingBackend()
        scenario = make_scenario(spec, backend=recorder, topology=topology)
        engine = GossipEngine(scenario)
        engine.run(CYCLES)
        mask = engine.adversary_mask
        redirect = spec.eclipse_redirects(
            topology, mask, np.random.default_rng(0)
        )
        initiators, responders = recorder.exchanges().T
        captured = redirect[initiators] >= 0
        assert captured.any()
        assert np.array_equal(
            responders[captured], redirect[initiators[captured]]
        )
        assert mask[responders[captured]].all()


class TestObservers:
    def test_masks_without_adversary(self):
        engine = GossipEngine(make_scenario(None))
        assert not engine.adversary_mask.any()
        assert engine.honest_mask.all()
        assert np.array_equal(engine.reported_column(), engine.alive_column())

    def test_honest_mask_excludes_adversaries(self):
        spec = AdversarySpec(kind="lying", fraction=0.25, value=0.0)
        engine = GossipEngine(make_scenario(spec))
        mask = engine.adversary_mask
        assert mask.sum() == 100
        assert np.array_equal(engine.honest_mask, ~mask)
        assert len(engine.honest_column()) == N - 100
