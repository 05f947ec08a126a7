"""Quickstart: compute a network-wide average with anti-entropy gossip.

Every node holds a private value (say, its CPU load). After a handful
of gossip cycles every node's local approximation equals the global
average — no coordinator, no spanning tree, no global knowledge.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    CompleteTopology,
    GossipEngine,
    PairProtocolSpec,
    RATE_SEQ,
    Scenario,
    make_rng,
)
from repro.avg import (
    empirical_mean,
    empirical_reduction_rates,
    empirical_variance,
    geometric_mean_reduction,
)


def main():
    n = 1000

    # each node starts with a private value; the network-wide truth:
    values = make_rng(7).uniform(0.0, 100.0, size=n)
    true_average = empirical_mean(values)
    print(f"{n} nodes, true average = {true_average:.4f}")
    print(f"initial variance across nodes = {empirical_variance(values):.4f}\n")

    # the practical protocol: every node contacts one random neighbor
    # per cycle (GETPAIR_SEQ) and both adopt the pair's mean
    scenario = Scenario(
        CompleteTopology(n),
        values,
        pair_protocol=PairProtocolSpec("seq"),
        cycles=20,
        seed=42,
    )
    with GossipEngine(scenario) as engine:
        variances = engine.run().variance_array("avg")
        estimates = engine.alive_column("avg")
    reductions = empirical_reduction_rates(variances)

    print("cycle   variance          reduction")
    for cycle in range(1, 11):
        print(f"{cycle:>5}   {variances[cycle]:.6e}   "
              f"{reductions[cycle - 1]:.4f}")
    print("  ...")
    print(f"\ntheory predicts a per-cycle reduction of 1/(2*sqrt(e)) = "
          f"{RATE_SEQ:.4f}")
    print(f"measured geometric mean            = "
          f"{geometric_mean_reduction(variances):.4f}")

    print(f"\nafter 20 cycles:")
    print(f"  every node's estimate  = {estimates.min():.6f} .. "
          f"{estimates.max():.6f}")
    print(f"  true average           = {true_average:.6f}")
    print(f"  worst node error       = "
          f"{np.abs(estimates - true_average).max():.2e}")


if __name__ == "__main__":
    main()
