"""Experiment harness: statistics, multi-seed runners and reporting."""

from .stats import (
    SeriesSummary,
    summarize,
    confidence_interval,
    geometric_mean,
)
from .runner import (
    Axis,
    replicate,
    replicate_scenario,
    ReplicateResult,
    ScenarioGrid,
)
from .reporting import (
    format_table,
    format_series,
    Panel,
    render_line_chart,
    Series,
    Table,
)
from .robustness import (
    MESSAGE_FAULT_DIRECTIONS,
    MESSAGE_FAULT_POLICIES,
    MessageFaultSweep,
    RobustnessSweep,
    render_message_fault_svg,
    render_robustness_svg,
    retry_for_policy,
)
from .validation import (
    chi_square_statistic,
    chi_square_critical,
    poisson_fit_ok,
)

__all__ = [
    "chi_square_statistic",
    "chi_square_critical",
    "poisson_fit_ok",
    "SeriesSummary",
    "summarize",
    "confidence_interval",
    "geometric_mean",
    "replicate",
    "replicate_scenario",
    "ReplicateResult",
    "Axis",
    "ScenarioGrid",
    "format_table",
    "format_series",
    "Panel",
    "render_line_chart",
    "Series",
    "Table",
    "MESSAGE_FAULT_DIRECTIONS",
    "MESSAGE_FAULT_POLICIES",
    "MessageFaultSweep",
    "RobustnessSweep",
    "render_message_fault_svg",
    "render_robustness_svg",
    "retry_for_policy",
]
