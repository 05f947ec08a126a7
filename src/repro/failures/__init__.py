"""Crash-stop fault plans (partitions are an
:class:`~repro.kernel.adversary.AdversarySpec` of kind ``"partition"``,
churn traces live in :mod:`repro.kernel.lifecycle`, loss schedules in
:mod:`repro.kernel.messages`)."""

from .crash import CrashPlan, random_crash_plan

__all__ = [
    "CrashPlan",
    "random_crash_plan",
]
