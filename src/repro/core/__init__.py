"""The paper's primary contribution: anti-entropy aggregation.

This package implements the aggregate functions of §1.1, the
multi-instance and epoch-restarted services of §4 and the network-size
estimation built on top of them; the push-pull exchange of Figure 1
itself runs in :mod:`repro.kernel`.
"""

from .aggregates import (
    AggregateFunction,
    MeanAggregate,
    MaxAggregate,
    MinAggregate,
    GeometricMeanAggregate,
    estimate_network_size,
    estimate_sum,
    estimate_variance_from_moments,
    moment_values,
)
from .size_estimation import (
    SizeEstimationConfig,
    SizeEstimationExperiment,
    EpochReport,
)
from .multi import MultiAggregateSpec
from .broadcast import (
    PushPullBroadcast,
    expected_rounds_push,
    expected_rounds_push_pull,
    spread_trajectory_deterministic,
)
from .service import AggregationReport, AggregationService
from .robust import RobustAverager, RobustRunResult

__all__ = [
    "RobustAverager",
    "RobustRunResult",
    "PushPullBroadcast",
    "expected_rounds_push",
    "expected_rounds_push_pull",
    "spread_trajectory_deterministic",
    "AggregationReport",
    "AggregationService",
    "AggregateFunction",
    "MeanAggregate",
    "MaxAggregate",
    "MinAggregate",
    "GeometricMeanAggregate",
    "estimate_network_size",
    "estimate_sum",
    "estimate_variance_from_moments",
    "moment_values",
    "SizeEstimationConfig",
    "SizeEstimationExperiment",
    "EpochReport",
    "MultiAggregateSpec",
]
