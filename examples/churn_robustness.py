"""Robustness study: what breaks anti-entropy aggregation, and how much?

The paper (§1.4, §3.2) analyzes the clean case and defers failures to
the companion TR. This example quantifies, on one screen, the three
failure modes a deployment will actually meet:

1. lost requests (failed exchanges) — slow convergence, never wrong
2. crash-stop failures              — lose unmixed mass, bias the result
3. lost replies                     — leak mass continuously

Run:  python examples/churn_robustness.py
"""

import numpy as np

from repro import CompleteTopology, GossipEngine, Scenario, run_scenario
from repro.avg import fit_geometric_rate, rate_seq_with_loss
from repro.kernel import MessageFaultSpec

N = 1500


def loss_study():
    print("1. lost requests: whole exchanges fail (complete overlay)")
    print(f"{'loss p':>8} {'measured rate':>15} {'thinned-phi theory':>20}")
    for p in (0.0, 0.1, 0.2, 0.4):
        values = np.random.default_rng(1).normal(0, 1, N)
        scenario = Scenario(
            CompleteTopology(N), values,
            message_faults=MessageFaultSpec(request_loss=p),
            cycles=12, seed=2,
        )
        rate = fit_geometric_rate(run_scenario(scenario).variance_array())
        print(f"{p:>8.2f} {rate:>15.4f} {rate_seq_with_loss(p):>20.4f}")
    print()


def crash_study():
    print("2. crash-stop failures (30% of nodes crash at cycle c)")
    print(f"{'crash cycle':>12} {'bias of converged mean':>24}")
    for crash_cycle in (0, 1, 2, 4, 8):
        rng = np.random.default_rng(3)
        values = rng.normal(10.0, 4.0, N)
        truth = values.mean()
        with GossipEngine(Scenario(CompleteTopology(N), values,
                                   seed=4)) as engine:
            engine.run(crash_cycle)
            victims = rng.choice(N, size=N * 3 // 10, replace=False)
            engine.crash(victims.tolist())
            engine.run(25)
            bias = abs(engine.mean() - truth)
        print(f"{crash_cycle:>12} {bias:>24.5f}")
    print("   (the later the crash, the more the victims' mass has")
    print("    already mixed into the survivors, the smaller the bias)\n")


def asymmetry_study():
    print("3. asymmetric loss: requests and replies each lost with p,")
    print("   a lost reply leaves only the partner updated and leaks mass")
    print(f"{'loss p':>8} {'|mean drift| after 20 cycles':>30}")
    values = np.random.default_rng(5).normal(10.0, 4.0, 400)
    for p in (0.0, 0.1, 0.3):
        drifts = []
        for seed in range(3):
            scenario = Scenario(
                CompleteTopology(400), values,
                message_faults=MessageFaultSpec(request_loss=p, reply_loss=p),
                cycles=20, seed=seed,
            )
            final_mean = run_scenario(scenario).mean_array()[-1]
            drifts.append(abs(final_mean - values.mean()))
        print(f"{p:>8.2f} {np.mean(drifts):>30.6f}")
    print("   (the companion TR's robust variants repair exactly this)")


def main():
    loss_study()
    crash_study()
    asymmetry_study()


if __name__ == "__main__":
    main()
