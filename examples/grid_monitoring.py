"""Grid monitoring: several aggregates at once over a realistic stack.

The paper's motivation (§1): "the identity of the most powerful peer in
a grid or the total amount of free space in a distributed storage".
This example runs four aggregation instances on the same push-pull
exchanges (§4's piggybacking) over a 20-regular overlay with 2 %
request loss and 2 % reply loss, and derives:

* the average free disk space          (AGGREGATE_AVG),
* the maximum node capability          (AGGREGATE_MAX — epidemic flood),
* the minimum node capability          (AGGREGATE_MIN),
* the TOTAL free space                 (average x network size),
* the VARIANCE of free space           (from first and second moments).

Run:  python examples/grid_monitoring.py
"""

import numpy as np

from repro import (
    GossipEngine,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    RandomRegularTopology,
    Scenario,
    estimate_sum,
    estimate_variance_from_moments,
)
from repro.core.aggregates import moment_values
from repro.kernel import MessageFaultSpec

N = 2000
CYCLES = 25


def main():
    rng = np.random.default_rng(99)
    topology = RandomRegularTopology(N, 20, seed=1)

    free_space_gb = rng.lognormal(mean=4.0, sigma=0.8, size=N)
    capability = rng.uniform(1.0, 100.0, size=N)

    print(f"simulating {N} grid nodes, 20-regular overlay, "
          f"{CYCLES} cycles, 2% request and 2% reply loss\n")

    scenario = Scenario(
        topology,
        free_space_gb,
        aggregates={
            "mean": MeanAggregate(),
            "square": MeanAggregate(),
            "max": MaxAggregate(),
            "min": MinAggregate(),
        },
        initial={
            "square": moment_values(free_space_gb, 2),
            "max": capability,
            "min": capability,
        },
        message_faults=MessageFaultSpec(request_loss=0.02, reply_loss=0.02),
        seed=10,
    )
    with GossipEngine(scenario) as engine:
        engine.run(CYCLES)
        # a typical node's view after convergence (node 0 here)
        mean_est, second_moment_est, max_est, min_est = engine.matrix[0]

    total_est = estimate_sum(mean_est, N)  # N known or from counting
    var_est = estimate_variance_from_moments(mean_est, second_moment_est)

    rows = [
        ("average free space (GB)", mean_est, free_space_gb.mean()),
        ("total free space (GB)", total_est, free_space_gb.sum()),
        ("free-space std dev (GB)", np.sqrt(var_est), free_space_gb.std()),
        ("max capability", max_est, capability.max()),
        ("min capability", min_est, capability.min()),
    ]
    print(f"{'aggregate':<28}{'node-0 estimate':>18}{'ground truth':>16}"
          f"{'rel. err':>10}")
    for name, estimate, truth in rows:
        rel = abs(estimate - truth) / abs(truth)
        print(f"{name:<28}{estimate:>18.3f}{truth:>16.3f}{rel:>10.2%}")

    print("\nmax/min floods are exact (epidemic broadcast); averaging-based")
    print("estimates carry a small bias from the 2% lost replies.")


if __name__ == "__main__":
    main()
