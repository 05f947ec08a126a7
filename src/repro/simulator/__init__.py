"""Cycle-driven execution and run observation.

* :class:`CycleSimulator` (in :mod:`repro.simulator.cycle_sim`) — a
  PeerSim-style synchronous cycle-driven engine matching the AVG model
  of §3 exactly; a thin shell over :mod:`repro.kernel`, which is what
  the paper-scale figures run on.
* :class:`ExchangeTrace` — per-exchange records from the sequential
  ``reference`` backend.

The asynchronous protocol of Figure 1 needs no engine of its own: with
the §2 zero-latency model an asynchronous run is a time-ordered
sequence of atomic exchanges, which the kernel's sequential primitives
apply as they are.
"""

from .trace import ExchangeRecord, ExchangeTrace

__all__ = [
    "ExchangeRecord",
    "ExchangeTrace",
]
