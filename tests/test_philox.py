"""The walk's random stream against two references.

A Trajectory's draw i is word i % 4 of Philox4x64-10 block i // 4 + 1 keyed
by (seed, stream) mod 2**64 (Salmon, Moraes, Dror and Shaw, SC '11), and
each draw is bisected over the cumulative probabilities times 2**64.
`walk._philox_words` computes the blocks with packed ints.  The references
are the pure-Python Philox4x64-10 below, one block at a time, which pins
the stream independently of numpy, and numpy's Philox, which the stream
has always been (numpy is a test-only dependency).
"""

import bisect
from fractions import Fraction as F

import numpy as np
import pytest

from cantorwalk.walk import Trajectory, _philox_words, make_model

from fixtures import cantor_space, named_generators

M0, M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
W0, W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Weyl key increments
MASK = 2 ** 64 - 1

# (seed, stream): the keys are each taken mod 2**64
KEYS = [(0, 0), (5, 3), (2 ** 63 + 7, 2 ** 64 - 1), (3 * 2 ** 64 + 11, 2 ** 64 + 2)]
PROBS = (F(1, 3), F(1, 6), F(1, 2))


def philox(seed: int, stream: int, counter: int = 0):
    """The uint64 outputs of Philox4x64-10 keyed by (seed, stream), each
    taken mod 2**64: a 256-bit counter, incremented before each block, and
    the block's four words in order."""
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


def numpy_draws(seed: int, stream: int, n: int) -> list:
    """numpy's first n full-range uint64 draws from its Philox keyed by
    (seed, stream) mod 2**64."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed % 2 ** 64, stream % 2 ** 64], dtype=np.uint64)))
    return [int(u) for u in rng.integers(0, 2 ** 64 - 1, size=n, dtype=np.uint64,
                                         endpoint=True)]


def _model(seed):
    K = cantor_space()
    return make_model(K, named_generators(["A1", "A2", "H"], K), PROBS, seed)


def _bisected(draws) -> list:
    cuts = [int(sum(PROBS[:i + 1]) * 2 ** 64) for i in range(len(PROBS) - 1)]
    return [bisect.bisect_right(cuts, u) for u in draws]


@pytest.mark.parametrize("seed, stream", KEYS)
def test_trajectory_indices_follow_the_philox_stream(seed, stream):
    draws = philox(seed, stream)
    expected = _bisected(next(draws) for _ in range(1001))
    t = Trajectory(_model(seed), stream)
    assert [t.index(k) for k in range(1001)] == expected
    assert set(expected) == {0, 1, 2}


@pytest.mark.parametrize("first", [0, 1, 3, 3999])
@pytest.mark.parametrize("seed, stream", KEYS)
def test_trajectory_indices_match_numpy_philox(seed, stream, first):
    # the first draw reaches `first` (3,999 is the chain's at n = 40); later
    # ones double what is drawn, or reach past the double
    t = Trajectory(_model(seed), stream)
    t.index(first)
    assert len(t._indices) == first + 1
    for k in (2 * first + 1, 4 * first + 5, 9000, 9001, 30_000):
        t.index(k)
    drawn = len(t._indices)
    assert drawn > 30_000
    assert t._indices == _bisected(numpy_draws(seed, stream, drawn))


@pytest.mark.parametrize("seed, stream", KEYS)
@pytest.mark.parametrize("first, count", [(1, 1), (1, 5), (6, 3), (2 ** 40 + 3, 2),
                                          (2 ** 64 - 2, 1)])
def test_packed_blocks_are_the_reference_blocks(seed, stream, first, count):
    # word i of block first + b in the low 64 of bits 128 b .. 128 b + 127
    draws = philox(seed, stream, first - 1)
    blocks = [[next(draws) for _ in range(4)] for _ in range(count)]
    assert _philox_words(seed % 2 ** 64, stream % 2 ** 64, first, count) == [
        sum(block[i] << 128 * b for b, block in enumerate(blocks)) for i in range(4)]
