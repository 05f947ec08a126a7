"""The paper's figure and table claims at reduced scale.

Each test asserts the shape of one paper artifact — Figure 3(a),
Figure 4, the §5 efficiency and "no performance peaks" claims — or of
one ablation the paper's discussion implies (topology, failures).
Sizes, seeds, replication counts and thresholds are fixed: a change
that moves a number moves it against the same draws.
``python -m repro figure3a`` / ``figure4`` print the tables.
"""

import numpy as np
import pytest

from repro.analysis import replicate, replicate_scenario
from repro.avg import (
    RATE_RAND, RATE_SEQ, convergence_rate, cycles_to_reduce,
    cycles_until_threshold, empirical_reduction_rates, fit_geometric_rate,
    geometric_mean_reduction, rate_seq_with_loss,
)
from repro.core import SizeEstimationConfig, SizeEstimationExperiment
from repro.failures import CrashPlan
from repro.kernel import (
    ChurnTrace, MessageFaultSpec, PairProtocolSpec, Scenario, run_scenario,
)
from repro.rng import make_rng, spawn_streams
from repro.topology import (
    CompleteTopology, RandomRegularTopology, RingTopology, StarTopology,
    WattsStrogatzTopology,
)

pytestmark = pytest.mark.slow_statistical


def gaussian_avg(topology, selector, cycles, rng):
    """The variance trajectory of AVG over N(0, 1) values, drawn from
    ``rng`` before the run itself draws from it."""
    scenario = Scenario(
        topology, make_rng(rng).normal(0.0, 1.0, size=topology.n),
        pair_protocol=PairProtocolSpec(selector), cycles=cycles, seed=rng,
    )
    return run_scenario(scenario).variance_array("avg")


def mean_over_runs(metric, runs, seed):
    return float(np.mean(replicate(metric, runs=runs, seed=seed).outputs))


def test_figure3a_one_shot_reduction_is_flat_in_n():
    """Figure 3(a): σ²₁/σ²₀ after one AVG execution sits at 1/e (RAND)
    and 1/(2√e) (SEQ) at every N, on the complete and the 20-regular
    overlay alike."""
    series = {}
    for n in (100, 316, 1000, 3162, 10000):
        topologies = (("complete", CompleteTopology(n)),
                      ("regular", RandomRegularTopology(n, 20, seed=n)))
        offset = 1
        for overlay, topology in topologies:
            for name, rate in (("rand", RATE_RAND), ("seq", RATE_SEQ)):
                reduction = mean_over_runs(
                    lambda rng: empirical_reduction_rates(
                        gaussian_avg(topology, name, 1, rng))[0],
                    runs=10, seed=n + offset)
                offset += 1
                assert abs(reduction - rate) / rate < 0.12, (n, name, overlay)
                series.setdefault((name, overlay), []).append(reduction)
    for key, values in series.items():
        assert max(values) - min(values) < 0.08, key  # size independence


def test_figure4_estimates_track_the_oscillating_size():
    """Figure 4: size swings 2700–3300 with 3+3 nodes turning over per
    cycle; each 30-cycle epoch's estimate tracks the size at its start."""
    config = SizeEstimationConfig(cycles=1000, cycles_per_epoch=30,
                                  initial_size=3000, expected_leaders=1.0,
                                  seed=2004)
    churn = ChurnTrace.diurnal(3000, 1000, period=500, amplitude=300,
                               fluctuation=3)
    experiment = SizeEstimationExperiment(config, churn=churn)
    experiment.run()
    reports = experiment.reports
    assert len(reports) == 1000 // 30
    assert np.mean([report.relative_error for report in reports]) < 0.1
    estimates = np.array([report.estimate_mean for report in reports])
    assert estimates.max() > 3000 * 1.03
    assert estimates.min() < 3000 * 0.97
    starts = np.array([report.size_at_start for report in reports])
    assert np.corrcoef(estimates, starts)[0, 1] > 0.9


def test_efficiency_claim_999_percent_in_about_seven_cycles():
    """§5: variance falls 99.9 % in ln 1000 ≈ 7 cycles even with RAND;
    every selector meets its predicted cycle count within one."""
    topology = CompleteTopology(2000)
    measured = {}
    for name in ("pm", "seq", "rand"):
        measured[name] = mean_over_runs(
            lambda rng: cycles_until_threshold(
                gaussian_avg(topology, name, 14, rng), 1e-3),
            runs=5, seed=len(name))
        predicted = cycles_to_reduce(1e-3, convergence_rate(name))
        assert abs(measured[name] - predicted) <= 1.0, name
    assert 6 <= measured["rand"] <= 8
    assert measured["pm"] <= measured["seq"] <= measured["rand"]


def test_no_performance_peaks_except_on_the_star():
    """§5: φ is location-independent, so per-node load over 30 cycles
    is flat on the paper's overlays; the star's hub is the peak."""
    n, cycles = 1000, 30
    cases = (("seq", CompleteTopology(n)), ("rand", CompleteTopology(n)),
             ("seq", RandomRegularTopology(n, 20, seed=2)),
             ("rand", RandomRegularTopology(n, 20, seed=3)),
             ("seq", StarTopology(n)))
    loads = []
    for seed, (name, topology) in enumerate(cases, start=700):
        draw = PairProtocolSpec(name).bind(topology)
        rng = make_rng(seed)
        totals = np.zeros(n, dtype=np.int64)
        for _ in range(cycles):
            totals += np.bincount(draw(rng).ravel(), minlength=n)
        loads.append(totals)
    *flat, star = loads
    for totals in flat:
        assert totals.mean() == 2 * cycles  # two nodes per exchange
        assert totals.max() / totals.mean() < 2.0
        assert totals.std() / totals.mean() < 0.2
    assert star.max() / star.mean() > n / 10


def test_topology_ablation():
    """Random overlays with 20+ neighbours match the complete graph's
    SEQ rate; the ring and the star mix worse; Watts–Strogatz improves
    with rewiring."""
    n = 1000
    overlays = {  # name: (seed, topology)
        "complete": (1000, CompleteTopology(n)),
        "20-regular": (1004, RandomRegularTopology(n, 20, seed=20)),
        "50-regular": (1005, RandomRegularTopology(n, 50, seed=50)),
        "ws beta=0": (1006, WattsStrogatzTopology(n, 10, 0.0, seed=17)),
        "ws beta=1": (1009, WattsStrogatzTopology(n, 10, 1.0, seed=17)),
        "ring": (1010, RingTopology(n, 2)),
        "star": (1012, StarTopology(n)),
    }
    rate = {name: mean_over_runs(
        lambda rng: geometric_mean_reduction(
            gaussian_avg(topology, "seq", 15, rng)), runs=4, seed=seed)
        for name, (seed, topology) in overlays.items()}
    for name in ("complete", "20-regular", "50-regular"):
        assert abs(rate[name] - RATE_SEQ) / RATE_SEQ < 0.1, name
    assert rate["ring"] > rate["20-regular"] * 1.5
    assert rate["star"] > rate["complete"]
    assert rate["ws beta=1"] < rate["ws beta=0"]


def test_failure_ablation():
    """§1.4: lost requests slow convergence as the thinned Theorem 1
    predicts; crashes bias the mean more the more nodes go; symmetric
    request + reply loss drifts the mean."""
    n, runs = 1000, 4
    rates = []
    for seed, loss in enumerate((0.0, 0.05, 0.1, 0.2, 0.4), start=300):
        scenario = Scenario(
            CompleteTopology(n), make_rng(seed).normal(0.0, 1.0, n),
            message_faults=MessageFaultSpec(request_loss=loss),
            cycles=12, seed=seed)
        rates.append(np.mean([
            fit_geometric_rate(run.variance_array())
            for run in replicate_scenario(scenario, runs=runs).outputs]))
        assert abs(rates[-1] - rate_seq_with_loss(loss)) < 0.03, loss
    assert all(b > a - 0.01 for a, b in zip(rates, rates[1:]))

    def mean_drift(seed, size, cycles, crash=None, loss=0.0):
        """Mean |final − initial network mean| over ``runs`` runs, with
        ``crash`` × size nodes crashing after one mixing cycle, or
        requests and replies lost with probability ``loss``."""
        drifts = []
        for rng in spawn_streams(seed, runs):
            values = rng.normal(10.0, 4.0, size)
            plan = faults = None
            if crash is not None:
                plan = CrashPlan()
                victims = rng.choice(size, size=int(size * crash),
                                     replace=False)
                if len(victims):
                    plan.add(1, victims.tolist())
            if loss:
                faults = MessageFaultSpec(request_loss=loss, reply_loss=loss)
            result = run_scenario(Scenario(
                CompleteTopology(size), values, crash_plan=plan,
                message_faults=faults, cycles=cycles, seed=rng))
            drifts.append(abs(result.mean_array()[-1] - values.mean()))
        return np.mean(drifts)

    biases = [mean_drift(seed, n, 21, crash=fraction)
              for seed, fraction in enumerate((0.0, 0.1, 0.3, 0.5), start=400)]
    assert biases[0] < 1e-9
    assert biases[-1] > biases[1]
    drifts = [mean_drift(seed, 400, 15, loss=loss)
              for seed, loss in enumerate((0.05, 0.2, 0.4), start=500)]
    assert drifts[-1] > 0
    assert drifts[-1] >= drifts[0] * 0.5
