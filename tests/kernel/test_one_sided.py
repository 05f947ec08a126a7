"""The one-sided exchange primitive against the scalar oracle.

``apply_one_sided`` executes the engine's message-fault writes (partial
exchanges, duplicate deliveries, retried exchanges) with the two-sided
plan — node-disjoint batches plus short sequential runs — and must
equal one scalar step per exchange bitwise on the matrix and on the
``combined`` / ``sent`` rows; the ledger delta may differ in the last
bits only (it is summed per segment). The lists here are hand-built:
a node-disjoint background two windows long with one collision
pattern written into it.
"""

import numpy as np
import pytest

from repro.core import MeanAggregate
from repro.kernel.backends import GREEDY_TAIL, PAIR_CHUNK, base

from .one_sided_oracle import MIXED_FUNCTIONS, check_against_oracle

#: background length (two windows) and node count: step ``t`` is
#: ``(2t, 2t + 1)``, the nodes from ``2 * STEPS`` on are spare
STEPS = PAIR_CHUNK + 600
NODES = 2 * STEPS + 400
SPARE = 2 * STEPS

FUNCTIONS = {"k1": (MeanAggregate(),), "k5": MIXED_FUNCTIONS}


def same_partner_twice(fi, fj):
    fj[900] = fj[3]      # far apart: second batch of the window
    fj[501] = fj[500]    # adjacent


def initiator_was_partner(fi, fj):
    fi[20] = fj[5]
    fi[21] = fj[20]


def long_chain(fi, fj):
    # each step's initiator is the previous step's partner: a scan finds
    # only the chain's head ready, so the chain rides in the pending set
    # until a scan finds fewer than GREEDY_TAIL steps ready, then goes
    # sequential GREEDY_TAIL steps at a time
    for s in range(2 * GREEDY_TAIL + 20):
        fi[100 + s] = SPARE + s
        fj[100 + s] = SPARE + s + 1


def window_edge(fi, fj):
    fi[PAIR_CHUNK] = fj[PAIR_CHUNK - 1]
    fj[PAIR_CHUNK + 1] = fi[PAIR_CHUNK - 2]


def everything(fi, fj):
    for pattern in (same_partner_twice, initiator_was_partner, long_chain,
                    window_edge):
        pattern(fi, fj)


PATTERNS = (same_partner_twice, initiator_was_partner, long_chain,
            window_edge, everything)


def background(dtype=np.int64):
    steps = np.arange(2 * STEPS, dtype=dtype).reshape(STEPS, 2)
    return steps[:, 0].copy(), steps[:, 1].copy()


def adoption(mode, m):
    if mode == "none":
        return None
    if mode == "mixed":
        return np.random.default_rng(5).random(m) < 0.5
    return np.full(m, mode == "all")


@pytest.mark.parametrize("k", sorted(FUNCTIONS))
class TestAgainstScalarOracle:
    @pytest.mark.parametrize("adopt", ["none", "nowhere", "all", "mixed"])
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.__name__)
    def test_collision_patterns(self, k, pattern, adopt):
        fi, fj = background()
        pattern(fi, fj)
        check_against_oracle(
            FUNCTIONS[k], NODES, fi, fj, adoption(adopt, STEPS)
        )

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.__name__)
    def test_stale_payload_never_touches_the_initiator(self, k, pattern):
        fi, fj = background(np.int32)
        pattern(fi, fj)
        payload = np.random.default_rng(3).normal(
            0.0, 9.0, (STEPS, len(FUNCTIONS[k]))
        )
        check_against_oracle(FUNCTIONS[k], NODES, fi, fj, payload=payload)

    @pytest.mark.parametrize("adopt", ["none", "all", "mixed"])
    def test_list_shorter_than_the_tail(self, k, adopt):
        fi = np.array([0, 1, 2, 0, 4, 5, 3, 1, 2, 0])
        fj = np.array([1, 2, 3, 5, 5, 0, 4, 0, 4, 3])
        assert len(fi) < GREEDY_TAIL
        check_against_oracle(
            FUNCTIONS[k], 6, fi, fj, adoption(adopt, len(fi))
        )

    def test_empty_list(self, k):
        empty = np.empty(0, dtype=np.int64)
        check_against_oracle(FUNCTIONS[k], NODES, empty, empty)

    def test_rows_not_built_unless_collected(self, k):
        fi, fj = background()
        everything(fi, fj)
        check_against_oracle(FUNCTIONS[k], NODES, fi, fj, collect=False)


def test_scalar_steps_bounded_by_tail_per_window(monkeypatch):
    """The cliff guard, as a count: however many collisions a long
    one-sided list holds, the sliding plan hands the scalar applier
    runs of at most ``GREEDY_TAIL`` steps, and no more such steps than
    one ``GREEDY_TAIL`` per window of the list — never the whole
    list."""
    steps, nodes = 20_000, 50_000
    rng = np.random.default_rng(2004)
    fi = rng.integers(0, nodes, steps)
    fj = (fi + rng.integers(1, nodes, steps)) % nodes
    assert len(np.unique(np.concatenate([fi, fj]))) < 2 * steps
    adopt_i = rng.random(steps) < 0.5

    scalar_steps = []
    sequential = base.apply_one_sided_sequential

    def counting(matrix, functions, steps_i, *rest):
        scalar_steps.append(len(steps_i))
        return sequential(matrix, functions, steps_i, *rest)

    monkeypatch.setattr(base, "apply_one_sided_sequential", counting)
    check_against_oracle((MeanAggregate(),), nodes, fi, fj, adopt_i)
    windows = -(-steps // PAIR_CHUNK)
    assert 0 < sum(scalar_steps) <= GREEDY_TAIL * windows
    assert max(scalar_steps) <= GREEDY_TAIL
