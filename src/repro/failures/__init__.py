"""Fault models: crash-stop failures and partitions (churn traces live
in :mod:`repro.kernel.lifecycle`, loss schedules in
:mod:`repro.kernel.messages`)."""

from .crash import CrashPlan, random_crash_plan
from .partition import PartitionSchedule

__all__ = [
    "PartitionSchedule",
    "CrashPlan",
    "random_crash_plan",
]
