"""Pair-mode (algorithm AVG) equivalence contract.

When a scenario declares a :class:`PairProtocolSpec`, the engine runs
each cycle as ``N`` elementary midpoint steps from a pre-materialized
GETPAIR sequence. The pair draw is the cycle's only RNG consumption and
happens in the engine, so the two backends replay identical sequences:

* the reference backend steps through the sequence one pair at a time
  (the semantic oracle — structurally the pre-kernel AVG runner's
  loop), and
* the vectorized backend greedily segments the sequence into
  conflict-free batches that preserve each node's step order,

and the resulting trajectories must agree **bitwise** for all four
selectors, on complete and sparse overlays, with and without Theorem
1's parallel ``s`` column. The φ distribution properties of §3.3 (PM
≡ 2, RAND ≈ Poisson(2), SEQ/PMRAND ≈ 1 + Poisson(1)) are asserted on
the kernel-recorded ``phi_counts`` directly.
"""

import hashlib

import numpy as np
import pytest

from repro.avg import geometric_mean_reduction
from repro.avg.theory import RATE_PM, RATE_RAND, RATE_SEQ
from repro.avg.vector import empirical_variance
from repro.errors import ConfigurationError, PairSelectionError
from repro.kernel import (
    PAIR_SELECTOR_NAMES,
    ChurnTrace,
    GossipEngine,
    PairProtocolSpec,
    Scenario,
    run_scenario,
)
from repro.rng import make_rng
from repro.topology import CompleteTopology, RandomRegularTopology, RingTopology

#: selectors that work on any overlay (PM/PMRAND need global knowledge)
SPARSE_SELECTORS = ("rand", "seq")


def pair_scenario(topology, selector, *, track_s=False, backend="reference",
                  seed=51):
    values = np.random.default_rng(13).normal(5.0, 2.0, topology.n)
    return Scenario(
        topology,
        values,
        pair_protocol=PairProtocolSpec(selector=selector, track_s=track_s),
        seed=seed,
        backend=backend,
    )


def run_both(topology, selector, *, track_s=False, cycles=10, seed=51):
    outputs = []
    for backend in ("reference", "vectorized"):
        engine = GossipEngine(
            pair_scenario(topology, selector, track_s=track_s,
                          backend=backend, seed=seed)
        )
        outputs.append((engine, engine.run(cycles)))
    return outputs


def assert_identical(ref, vec):
    ref_engine, ref_result = ref
    vec_engine, vec_result = vec
    assert np.array_equal(ref_engine.matrix, vec_engine.matrix)
    assert ref_result.exchange_counts == vec_result.exchange_counts
    for name in ref_result.instance_names:
        assert np.array_equal(
            ref_result.variance_array(name), vec_result.variance_array(name)
        )
        assert np.array_equal(
            ref_result.mean_array(name), vec_result.mean_array(name)
        )
    assert len(ref_result.phi_counts) == len(vec_result.phi_counts)
    for ref_phi, vec_phi in zip(ref_result.phi_counts, vec_result.phi_counts):
        assert np.array_equal(ref_phi, vec_phi)


def _avg_digest(topology, selector, *, track_s, backend, cycles=8, seed=37):
    """sha256 over one AVG run: the final ``avg`` column, the variance
    trajectory, every cycle's φ counts and, when tracked, the ``s``
    means of cycles 1..T."""
    values = np.random.default_rng(11).normal(0.0, 1.0, topology.n)
    scenario = Scenario(
        topology,
        values,
        pair_protocol=PairProtocolSpec(selector, track_s=track_s),
        cycles=cycles,
        seed=seed,
        backend=backend,
    )
    with GossipEngine(scenario) as engine:
        result = engine.run()
        final = engine.alive_column("avg")
    digest = hashlib.sha256()
    digest.update(final.tobytes())
    digest.update(result.variance_array("avg").tobytes())
    digest.update(np.stack(result.phi_counts).tobytes())
    if track_s:
        digest.update(result.mean_array("s")[1:].tobytes())
    return digest.hexdigest()


#: AVG runs keyed by (overlay, selector, track_s), pinned through a
#: facade runner (``run_avg`` over a ``ValueVector`` and a GETPAIR
#: selector class) that has since gone; a plain pair-mode scenario
#: reaches every digest on both backends
GOLDEN = {
    ("complete", "pm", False):
        "cb3fe559d924cd05504e6270abf4a7b1bec843173a7f7248c6bfe1b15a80cc09",
    ("complete", "pm", True):
        "87bae35069f92878fe09aba7c8caa74ba9666219bd673064654ba274fa111e61",
    ("complete", "rand", False):
        "985fabb201420ae056e4d5955ae7832a36dd68e0497d5bc5796f206003ae9cd1",
    ("complete", "rand", True):
        "0a6682f6d540b4400bbebcdabb84d219e11ea01511874b6f341788ee6b1eea1e",
    ("complete", "seq", False):
        "3ba1e82022debaac94814e126cae5364d9cba71df1ce4347b49a4077b42d73ef",
    ("complete", "seq", True):
        "84c7462e73b337eb29db66200b866535d8e2ec42715918a43e3223f87db92e6f",
    ("complete", "pmrand", False):
        "82b9797b0c20640bf833fe59559a7ca2d23901617808e8259a4fe3b4baefbf21",
    ("complete", "pmrand", True):
        "9f9ad327517cf5dd6eed3cf91b5cadb4a02a3c525a913b6b5e03ae11ba7273dd",
    ("regular20", "seq", True):
        "8c8ded4a7403b3ca97c80d3e5270bdc73ce3c4b3e3de6b179c0f243c40d87a8b",
    ("regular20", "rand", True):
        "85b5faf29b926b6bb78c6cfdeded05e7a5cca7e2a5bf08783b2af015b9bfc214",
}

GOLDEN_TOPOLOGIES = {
    "complete": CompleteTopology(400),
    "regular20": RandomRegularTopology(400, 20, seed=43),
}


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("overlay, selector, track_s", list(GOLDEN))
def test_golden(overlay, selector, track_s, backend):
    assert _avg_digest(
        GOLDEN_TOPOLOGIES[overlay], selector, track_s=track_s,
        backend=backend,
    ) == GOLDEN[overlay, selector, track_s]


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("selector", list(PAIR_SELECTOR_NAMES))
    @pytest.mark.parametrize("track_s", [False, True],
                             ids=["values-only", "with-s"])
    def test_complete(self, selector, track_s):
        ref, vec = run_both(CompleteTopology(400), selector, track_s=track_s)
        assert_identical(ref, vec)

    @pytest.mark.parametrize("selector", SPARSE_SELECTORS)
    @pytest.mark.parametrize(
        "topology",
        [RandomRegularTopology(400, 8, seed=23), RingTopology(400)],
        ids=lambda t: type(t).__name__,
    )
    def test_sparse(self, selector, topology):
        ref, vec = run_both(topology, selector, track_s=True)
        assert_identical(ref, vec)

    def test_incremental_runs_stay_equal(self):
        """phi_counts are per-run slices, like exchange_counts."""
        engines = [
            GossipEngine(pair_scenario(CompleteTopology(200), "seq",
                                       backend=backend))
            for backend in ("reference", "vectorized")
        ]
        for cycles in (4, 3):
            results = [engine.run(cycles) for engine in engines]
            assert len(results[0].phi_counts) == cycles
            assert_identical(
                (engines[0], results[0]), (engines[1], results[1])
            )


class TestSequentialOracle:
    """The reference trajectory must match a verbatim replay of the
    pre-kernel AVG runner's loop — same RNG draws, same elementary
    steps, bitwise."""

    @staticmethod
    def replay(topology, selector, cycles, seed, values):
        draw = PairProtocolSpec(selector).bind(topology)
        rng = make_rng(seed)
        state = values.tolist()
        s_state = [v * v for v in state]
        trajectory, s_trajectory = [], []
        for _ in range(cycles):
            for i, j in draw(rng).tolist():
                midpoint = (state[i] + state[j]) * 0.5
                state[i] = midpoint
                state[j] = midpoint
                quarter = (s_state[i] + s_state[j]) * 0.25
                s_state[i] = quarter
                s_state[j] = quarter
            trajectory.append(empirical_variance(np.asarray(state)))
            s_trajectory.append(float(np.mean(s_state)))
        return np.asarray(state), trajectory, s_trajectory

    @pytest.mark.parametrize("selector", list(PAIR_SELECTOR_NAMES))
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_matches_old_loop(self, selector, backend):
        topology = CompleteTopology(300)
        values = np.random.default_rng(29).normal(0.0, 1.0, 300)
        scenario = Scenario(
            topology,
            values,
            pair_protocol=PairProtocolSpec(selector=selector, track_s=True),
            seed=91,
            backend=backend,
        )
        engine = GossipEngine(scenario)
        result = engine.run(6)
        state, trajectory, s_trajectory = self.replay(
            topology, selector, 6, 91, values
        )
        assert np.array_equal(engine.alive_column("avg"), state)
        assert result.variances["avg"][1:] == trajectory
        assert result.means["s"][1:] == s_trajectory


class TestPhiDistributions:
    """§3.3's φ characterizations, read off kernel phi_counts."""

    def phi(self, selector, n=5000, seed=61):
        engine = GossipEngine(
            pair_scenario(CompleteTopology(n), selector, seed=seed,
                          backend="vectorized")
        )
        return np.concatenate(engine.run(4).phi_counts)

    def test_pm_is_exactly_two(self):
        assert np.all(self.phi("pm") == 2)

    def test_rand_is_poisson_two(self):
        phi = self.phi("rand")
        assert phi.mean() == pytest.approx(2.0, abs=0.05)
        assert phi.var() == pytest.approx(2.0, rel=0.1)  # Var(Poisson(2))

    @pytest.mark.parametrize("selector", ["seq", "pmrand"])
    def test_seq_and_pmrand_are_one_plus_poisson_one(self, selector):
        phi = self.phi(selector)
        assert np.all(phi >= 1)
        assert phi.mean() == pytest.approx(2.0, abs=0.05)
        assert phi.var() == pytest.approx(1.0, rel=0.1)  # Var(1+Poisson(1))

    def test_track_phi_off_records_nothing(self):
        scenario = Scenario(
            CompleteTopology(100),
            np.random.default_rng(3).normal(0, 1, 100),
            pair_protocol=PairProtocolSpec(selector="seq", track_phi=False),
            seed=5,
        )
        assert GossipEngine(scenario).run(3).phi_counts == []


class TestConvergenceRates:
    """The empirical per-cycle rates land on the §3.3 theory values for
    every selector, on the vectorized backend at a size where the
    concentration is tight."""

    @pytest.mark.parametrize("selector,theory", [
        ("pm", RATE_PM),
        ("rand", RATE_RAND),
        ("seq", RATE_SEQ),
        ("pmrand", RATE_SEQ),
    ])
    def test_rate(self, selector, theory):
        scenario = Scenario(
            CompleteTopology(4000),
            np.random.default_rng(17).normal(0.0, 1.0, 4000),
            pair_protocol=PairProtocolSpec(selector),
            cycles=10,
            seed=19,
            backend="vectorized",
        )
        variances = run_scenario(scenario).variance_array("avg")
        assert geometric_mean_reduction(variances) == pytest.approx(
            theory, rel=0.06
        )


class TestScenarioValidation:
    def values(self, n=100):
        return np.random.default_rng(7).normal(0, 1, n)

    def test_pm_odd_n_rejected(self):
        with pytest.raises(PairSelectionError):
            Scenario(CompleteTopology(101), self.values(101),
                     pair_protocol=PairProtocolSpec(selector="pm"))

    def test_pmrand_sparse_rejected(self):
        with pytest.raises(PairSelectionError):
            Scenario(RingTopology(100), self.values(),
                     pair_protocol=PairProtocolSpec(selector="pmrand"))

    def test_failure_machinery_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(CompleteTopology(100), self.values(),
                     pair_protocol=PairProtocolSpec(selector="seq"),
                     churn=ChurnTrace.constant(4, 1, 1))

    def test_crash_rejected_and_changes_nothing(self):
        """A pair-mode engine keeps drawing every node, so a crash
        could not take effect: it is refused before any state moves."""
        engine = GossipEngine(pair_scenario(CompleteTopology(100), "seq"))
        before = engine.matrix
        with pytest.raises(ConfigurationError):
            engine.crash([0])
        assert engine.alive_mask.all()
        assert np.array_equal(engine.matrix, before)
        engine.run(3)
        assert engine.alive_mask.all()

    def test_custom_aggregates_rejected(self):
        from repro.core import MaxAggregate

        with pytest.raises(ConfigurationError):
            Scenario(CompleteTopology(100), self.values(),
                     aggregates={"max": MaxAggregate()},
                     pair_protocol=PairProtocolSpec(selector="seq"))

    def test_pair_mode_owns_instance_layout(self):
        scenario = pair_scenario(CompleteTopology(100), "seq", track_s=True)
        assert scenario.instance_names == ("avg", "s")
        matrix = scenario.initial_matrix()
        assert np.array_equal(matrix[:, 1], scenario.values ** 2)

    def test_replace_reseeds_cleanly(self):
        """The sweep/replicate drivers re-seed via Scenario.replace();
        the pair-mode normalization must be idempotent under it."""
        scenario = pair_scenario(CompleteTopology(100), "seq", track_s=True)
        replaced = scenario.replace(seed=99)
        assert replaced.instance_names == ("avg", "s")
        result = GossipEngine(replaced).run(2)
        assert len(result.phi_counts) == 2


class TestChunkTunable:
    """The greedy-segmentation window is a pure performance constant:
    any positive value must reproduce the reference trajectory
    bitwise."""

    def run_vectorized(self, n=300, cycles=6):
        from repro.kernel import VectorizedBackend

        values = np.random.default_rng(17).normal(0.0, 1.0, n)
        scenario = Scenario(
            CompleteTopology(n),
            values,
            pair_protocol=PairProtocolSpec(selector="rand"),
            seed=71,
            backend=VectorizedBackend(),
        )
        engine = GossipEngine(scenario)
        engine.run(cycles)
        return engine.matrix

    def test_chunk_never_changes_results(self, monkeypatch):
        from repro.kernel.backends import vectorized

        reference = self.run_vectorized()
        for chunk in (1, 7, 64, 100_000):
            monkeypatch.setattr(vectorized, "PAIR_CHUNK", chunk)
            assert np.array_equal(self.run_vectorized(), reference)
