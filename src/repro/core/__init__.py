"""The paper's primary contribution: anti-entropy aggregation.

This package implements the aggregate functions of §1.1 and the
network-size estimation of §4. §4's monitoring suite, the median of
independent instances and §1.1's broadcast are recipes: a function
returning a :class:`~repro.kernel.Scenario`, plus a reducer over its
run. The push-pull exchange of Figure 1 itself runs in
:mod:`repro.kernel`.
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
    broadcast_scenario,
    expected_rounds_push,
    expected_rounds_push_pull,
    spread_trajectory,
    spread_trajectory_deterministic,
)
from .service import (
    AggregationReport,
    service_epochs_scenario,
    service_report,
    service_scenario,
)
from .robust import RobustRunResult, median_of_instances

__all__ = [
    "median_of_instances",
    "RobustRunResult",
    "broadcast_scenario",
    "spread_trajectory",
    "expected_rounds_push",
    "expected_rounds_push_pull",
    "spread_trajectory_deterministic",
    "AggregationReport",
    "service_scenario",
    "service_epochs_scenario",
    "service_report",
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
