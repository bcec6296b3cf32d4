"""The walk's random stream, pinned without numpy.

A Trajectory draws full-range uint64s from numpy's Philox4x64-10 keyed by
(seed, stream), one Philox output per draw, and bisects each draw over the
cumulative probabilities times 2**64.  The pure-Python Philox4x64-10 below
(Salmon, Moraes, Dror and Shaw, SC '11) reproduces that stream, so the
walk's indices are pinned independently of numpy and its version.
"""

import bisect
from fractions import Fraction as F

import pytest

from cantorwalk.walk import Trajectory, make_model

from fixtures import cantor_space, named_generators

M0, M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
W0, W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Weyl key increments
MASK = 2 ** 64 - 1


def philox(seed: int, stream: int):
    """The uint64 outputs of Philox4x64-10 keyed by (seed, stream), each
    taken mod 2**64: a 256-bit counter, incremented before each block, and
    the block's four words in order."""
    counter = 0
    while True:
        counter = (counter + 1) % 2 ** 256
        x = [(counter >> (64 * i)) & MASK for i in range(4)]
        k0, k1 = seed & MASK, stream & MASK
        for r in range(10):
            if r:
                k0, k1 = (k0 + W0) & MASK, (k1 + W1) & MASK
            p0, p1 = M0 * x[0], M1 * x[2]
            x = [(p1 >> 64) ^ x[1] ^ k0, p1 & MASK, (p0 >> 64) ^ x[3] ^ k1, p0 & MASK]
        yield from x


@pytest.mark.parametrize("seed, stream", [(0, 0), (5, 3), (2 ** 63 + 7, 2 ** 64 - 1)])
def test_trajectory_indices_follow_the_philox_stream(seed, stream):
    probs = (F(1, 3), F(1, 6), F(1, 2))
    K = cantor_space()
    model = make_model(K, named_generators(["A1", "A2", "H"], K), probs, seed)
    cuts = [int(sum(probs[:i + 1]) * 2 ** 64) for i in range(len(probs) - 1)]
    draws = philox(seed, stream)
    expected = [bisect.bisect_right(cuts, next(draws)) for _ in range(1001)]
    t = Trajectory(model, stream)
    assert [t.index(k) for k in range(1001)] == expected
    assert set(expected) == {0, 1, 2}
