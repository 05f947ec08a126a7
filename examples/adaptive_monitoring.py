"""Adaptive monitoring: the aggregate follows a changing signal.

The paper's core motivation (§1): "if the aggregate changes due to
network dynamism or variations in the values to be aggregated, the
output of the aggregation protocol should follow this change reasonably
quickly". This example monitors the average load of a cluster whose
load level shifts twice during the run, using the epoch protocol of §4:
every epoch the protocol restarts from the current values, so each
epoch's converged output reflects the state at that epoch's start.

Run:  python examples/adaptive_monitoring.py
"""

import numpy as np

from repro import CompleteTopology, EpochSpec, Scenario, run_scenario

N = 300
CYCLES_PER_EPOCH = 25
EPOCHS = 6


def load_multiplier(cycle):
    """A synthetic day: quiet, then a traffic spike, then recovery."""
    epoch = cycle / CYCLES_PER_EPOCH
    if epoch < 2:
        return 1.0
    if epoch < 4:
        return 3.0  # spike
    return 1.5  # partial recovery


def main():
    rng = np.random.default_rng(3)
    base_load = rng.uniform(0.2, 0.8, N)

    def reseed(restart):
        # each node re-reads its current load at the epoch start
        return base_load[restart.participants] * load_multiplier(restart.cycle)

    scenario = Scenario(
        CompleteTopology(N), base_load,
        epochs=EpochSpec(
            CYCLES_PER_EPOCH, reseed=reseed,
            finalize=lambda view: view.matrix[:, 0],
        ),
        seed=17,
    )
    result = run_scenario(scenario, cycles=EPOCHS * CYCLES_PER_EPOCH)

    print(f"{N} nodes, epoch = {CYCLES_PER_EPOCH} cycles; load spikes 3x "
          "during epochs 2-3\n")
    print("epoch   true avg @ start   every node's converged estimate")
    for epoch, estimates in enumerate(result.epoch_results):
        truth = base_load.mean() * load_multiplier(epoch * CYCLES_PER_EPOCH)
        print(f"{epoch:>5}   {truth:>16.4f}   "
              f"{estimates.mean():>10.4f}  (spread {estimates.std():.2e}, "
              f"{len(estimates)} nodes)")
    print("\nthe estimate follows the signal with one-epoch latency and")
    print("sub-1e-6 agreement across nodes — proactive aggregation.")


if __name__ == "__main__":
    main()
