"""Property: whatever the interleaving of departures, admissions and
``crash()`` calls, the slots ``_admit`` hands out and the free list it
leaves behind are those of the plain model — pop the newest free slot
until none is left, then take fresh ones off the top."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernel import (
    ChurnTrace,
    EpochSpec,
    GossipEngine,
    Scenario,
    StructureMonitor,
)
from repro.topology import CompleteTopology

N = 8


def pop_model(free, top, count):
    """``(slots handed out, free list left, new top)``, one at a time."""
    free = list(free)
    slots = []
    for _ in range(count):
        if free:
            slots.append(free.pop())
        else:
            slots.append(top)
            top += 1
    return slots, free, top


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(0, 6),  # leaves
            st.integers(0, 6),  # joins
            st.lists(st.integers(0, 3 * N), max_size=4),  # crash() ids
        ),
        min_size=1, max_size=10,
    ),
    epochs=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_admit_hands_out_what_a_pop_loop_would(steps, epochs, seed):
    trace = ChurnTrace([joins for _, joins, _ in steps],
                       [leaves for leaves, _, _ in steps])
    engine = GossipEngine(Scenario(
        CompleteTopology(N), np.arange(float(N)), seed=seed,
        backend="vectorized", churn=trace,
        epochs=EpochSpec(cycles_per_epoch=3) if epochs else None,
    ))
    engine.register_monitor(StructureMonitor(), strict=True)
    admitted = []
    admit = engine._lifecycle.admit

    def spy(count):
        entry = (list(engine._lifecycle.free_slots), engine._lifecycle.top)
        slots = admit(count)
        admitted.append((*entry, slots.tolist()))
        return slots

    engine._lifecycle.admit = spy
    free, top = [], N
    with engine:
        for leaves, joins, crashed in steps:
            crashed = [i for i in crashed if i < engine.capacity]
            alive = engine.alive_mask
            for node in crashed:
                if alive[node]:
                    alive[node] = False
                    free.append(node)
            engine.crash(crashed)
            assert engine._lifecycle.free_slots == free
            leaves = min(leaves, max(int(alive.sum()) - 1, 0))
            engine.run_cycle()
            if joins:
                (free_at_entry, top_at_entry, slots), = admitted
                admitted.clear()
            else:
                free_at_entry, top_at_entry, slots = (
                    engine._lifecycle.free_slots, engine._lifecycle.top, []
                )
            # the departures: distinct nodes that were alive, appended
            left = free_at_entry[len(free):]
            assert free_at_entry[:len(free)] == free
            assert len(left) == len(set(left)) == leaves
            assert alive[left].all()
            assert top_at_entry == top
            expected, free, top = pop_model(free_at_entry, top, joins)
            assert slots == expected
            assert engine._lifecycle.free_slots == free
            assert engine.structure_snapshot()["free_slots"] == tuple(free)
            assert engine._lifecycle.top == top
            assert not engine.alive_mask[free].any()
            assert engine.alive_count == (
                int(alive.sum()) - leaves + joins
            )
