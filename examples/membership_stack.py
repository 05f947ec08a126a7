"""Aggregation over a gossip membership protocol (the full §1.2 stack).

The paper assumes "a connected unbiased random topology" maintained by
a peer-sampling protocol [5, 7, 9]. This example stacks the two layers
the way a real deployment would:

  Newscast peer sampling  →  random partner per cycle  →  anti-entropy
  averaging on top

and verifies that the convergence matches the theory for random
overlays, while the membership layer keeps the overlay healthy
(flat in-degrees, no starvation).

Run:  python examples/membership_stack.py
"""

import numpy as np

from repro import RATE_SEQ, CompleteTopology, GossipEngine, Scenario
from repro.kernel import NewscastSpec


def main():
    n = 2000
    cycles = 20
    values = np.random.default_rng(5).normal(50.0, 15.0, n)
    truth = float(np.mean(values))
    scenario = Scenario(
        CompleteTopology(n), values,
        membership=NewscastSpec(view_size=20), seed=6,
    )

    print(f"{n} nodes, Newscast views of 20, {cycles} cycles\n")
    print("cycle  variance        in-degree min/max")
    with GossipEngine(scenario) as engine:
        variances = [engine.variance()]
        for cycle in range(1, cycles + 1):
            # one membership gossip round, then one aggregation round
            # whose partners come from the refreshed views
            engine.run_cycle()
            variances.append(engine.variance())
            if cycle <= 10 or cycle == cycles:
                in_degrees = np.bincount(
                    engine.membership_views.ravel(), minlength=n
                )
                print(f"{cycle:>5}  {variances[-1]:.6e}  "
                      f"{in_degrees.min():>3} / {in_degrees.max():<3}")
        mean = engine.mean()

    ratios = np.array(variances[1:]) / np.array(variances[:-1])
    rate = float(np.exp(np.log(ratios[:12]).mean()))
    print(f"\nempirical per-cycle reduction : {rate:.4f}")
    print(f"theory for random overlays    : {RATE_SEQ:.4f}  (1/(2*sqrt(e)))")
    print(f"final network mean            : {mean:.6f}")
    print(f"ground truth                  : {truth:.6f}")


if __name__ == "__main__":
    main()
