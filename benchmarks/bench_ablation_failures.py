"""Experiment A2 — failure ablation (message loss and crashes, §1.4).

Measures, on the gossip kernel:

* per-cycle reduction rate as a function of the request-loss
  probability p (a lost request fails the whole exchange),
* the converged-mean bias introduced by crashing a fraction of nodes
  mid-run (mass departs with the crashed nodes), and
* the mean drift caused by *asymmetric* loss: every request and every
  reply is lost with probability p (``MessageFaultSpec``), and a lost
  reply leaves only the partner updated.

Expected shape: the rate degrades smoothly toward 1 as p → 1 following
the Bernoulli-thinned Theorem 1 prediction
``rate(p) = (p + (1−p)/2)·exp(−(1−p)/2)`` (see
:func:`repro.avg.theory.rate_seq_with_loss`); crash bias grows with the
crashed fraction; asymmetric drift grows with p.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import Table, replicate_scenario
from repro.avg import RATE_SEQ, fit_geometric_rate, rate_seq_with_loss
from repro.failures import CrashPlan
from repro.kernel import MessageFaultSpec, Scenario, run_scenario
from repro.rng import make_rng, spawn_streams
from repro.topology import CompleteTopology

from _common import emit, paper_scale

N = 4000 if paper_scale() else 1000
RUNS = 10 if paper_scale() else 4
LOSS_LEVELS = (0.0, 0.05, 0.1, 0.2, 0.4)
CRASH_FRACTIONS = (0.0, 0.1, 0.3, 0.5)


def loss_rate_row(loss, seed):
    scenario = Scenario(
        CompleteTopology(N),
        make_rng(seed).normal(0.0, 1.0, N),
        message_faults=MessageFaultSpec(request_loss=loss),
        cycles=12,
        seed=seed,
    )
    replicated = replicate_scenario(scenario, runs=RUNS)
    return float(np.mean(
        [fit_geometric_rate(run.variance_array()) for run in replicated.outputs]
    ))


def crash_bias_row(fraction, seed):
    """|converged estimate − original true mean| when a fraction of
    nodes crashes after one mixing cycle (their unmixed mass is lost)."""
    biases = []
    for rng in spawn_streams(seed, RUNS):
        values = rng.normal(10.0, 4.0, N)
        true_mean = float(values.mean())
        victims = rng.choice(N, size=int(N * fraction), replace=False)
        plan = CrashPlan()
        if len(victims):
            plan.add(1, victims.tolist())  # one mixing cycle, then crash
        scenario = Scenario(
            CompleteTopology(N), values, crash_plan=plan,
            cycles=21, seed=rng,
        )
        result = run_scenario(scenario)
        biases.append(abs(result.mean_array()[-1] - true_mean))
    return float(np.mean(biases))


def asymmetric_drift_row(loss, seed):
    drifts = []
    for rng in spawn_streams(seed, RUNS):
        values = rng.normal(10.0, 4.0, 400)
        scenario = Scenario(
            CompleteTopology(400), values,
            message_faults=MessageFaultSpec(request_loss=loss, reply_loss=loss),
            cycles=15, seed=rng,
        )
        result = run_scenario(scenario)
        drifts.append(abs(result.mean_array()[-1] - values.mean()))
    return float(np.mean(drifts))


def compute_ablation():
    loss_rows = [
        (p, loss_rate_row(p, seed=300 + i)) for i, p in enumerate(LOSS_LEVELS)
    ]
    crash_rows = [
        (f, crash_bias_row(f, seed=400 + i))
        for i, f in enumerate(CRASH_FRACTIONS)
    ]
    drift_rows = [
        (p, asymmetric_drift_row(p, seed=500 + i))
        for i, p in enumerate((0.05, 0.2, 0.4))
    ]
    return loss_rows, crash_rows, drift_rows


def render(loss_rows, crash_rows, drift_rows):
    loss_table = Table(
        headers=["loss prob", "per-cycle rate", "thinned-phi prediction"],
        title=f"A2.1: lost requests vs convergence rate, N={N}",
    )
    for p, rate in loss_rows:
        loss_table.add_row(p, rate, rate_seq_with_loss(p))
    crash_table = Table(
        headers=["crashed fraction", "mean |bias| vs original true mean"],
        title="A2.2: crash-induced estimate bias (crash after 1 cycle)",
    )
    for fraction, bias in crash_rows:
        crash_table.add_row(fraction, bias)
    drift_table = Table(
        headers=["loss prob", "mean drift of network average"],
        title="A2.3: asymmetric loss (request + reply): mass-conservation drift",
    )
    for p, drift in drift_rows:
        drift_table.add_row(p, drift)
    return "\n\n".join(
        (loss_table.render(), crash_table.render(), drift_table.render())
    )


def test_ablation_failures(benchmark, capsys):
    loss_rows, crash_rows, drift_rows = benchmark.pedantic(
        compute_ablation, rounds=1, iterations=1
    )
    emit("ablation_failures", render(loss_rows, crash_rows, drift_rows), capsys)
    # loss degrades the rate monotonically and roughly as p + (1-p)*rate
    rates = [rate for _, rate in loss_rows]
    assert all(b > a - 0.01 for a, b in zip(rates, rates[1:]))
    for p, rate in loss_rows:
        predicted = rate_seq_with_loss(p)
        assert abs(rate - predicted) < 0.03
    # crash bias grows with the crashed fraction
    biases = [bias for _, bias in crash_rows]
    assert biases[0] < 1e-9
    assert biases[-1] > biases[1]
    # asymmetric drift is nonzero and grows with loss
    drifts = [drift for _, drift in drift_rows]
    assert drifts[-1] > 0
    assert drifts[-1] >= drifts[0] * 0.5
