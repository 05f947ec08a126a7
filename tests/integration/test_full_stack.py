"""Integration: event-driven epoch counting — §4's size estimation on
the asynchronous stack."""

import numpy as np
import pytest

from repro.core.epoch_protocol import EpochGossipNetwork
from repro.core import estimate_network_size


class TestEventDrivenCounting:
    def test_size_estimation_over_epoch_protocol(self):
        """§4 counting on the asynchronous stack: node 0 contributes 1,
        everyone else 0; each epoch's converged output is 1/N."""
        n = 200

        def provider(node_id, time):
            return 1.0 if node_id == 0 else 0.0

        net = EpochGossipNetwork(n, provider, cycles_per_epoch=30, seed=4)
        net.run_epochs(2.05)
        for epoch in range(2):
            estimates = net.epoch_estimates(epoch)
            assert len(estimates) == n
            sizes = [estimate_network_size(max(x, 1e-12)) for x in estimates]
            assert np.mean(sizes) == pytest.approx(n, rel=1e-3)
