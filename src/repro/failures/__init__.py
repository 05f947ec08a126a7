"""Fault models: crash-stop failures, churn traces and partitions
(loss schedules live in :mod:`repro.kernel.messages`)."""

from .crash import CrashPlan, random_crash_plan
from .churn import (
    ChurnModel,
    NoChurn,
    OscillatingChurn,
    ConstantRateChurn,
    ChurnStep,
)
from .partition import PartitionSchedule

__all__ = [
    "PartitionSchedule",
    "CrashPlan",
    "random_crash_plan",
    "ChurnModel",
    "NoChurn",
    "OscillatingChurn",
    "ConstantRateChurn",
    "ChurnStep",
]
