"""Cycle-driven execution.

:class:`CycleSimulator` (in :mod:`repro.simulator.cycle_sim`) is a
PeerSim-style synchronous cycle-driven engine matching the AVG model of
§3 exactly; a thin shell over :mod:`repro.kernel`, which is what the
paper-scale figures run on.

The asynchronous protocol of Figure 1 needs no engine of its own: with
the §2 zero-latency model an asynchronous run is a time-ordered
sequence of atomic exchanges, which the kernel's sequential primitives
apply as they are.
"""
