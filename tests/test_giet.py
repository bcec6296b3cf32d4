"""Interval exchanges, discontinuity orbits and the blow-up construction."""

from fractions import Fraction as F
from math import gcd

import pytest

from cantorwalk.giet import GietError, _ops, blow_up, discontinuity_closure, giet_from_branches
from cantorwalk.maps import apply, break_pairs, break_points, orbit_bfs

from fixtures import conjugate_point, giet_value, is_identity, rotation
from reference import bounded_gaps

ROT3 = rotation(F(1, 3))
SWAP = giet_from_branches((0, 1), [(0, F(1, 2), 1, F(1, 2)),
                                   (F(1, 2), 1, 1, F(-1, 2))])


def test_rotation_branches():
    assert [(b.lo, b.hi, b.slope, b.offset) for b in ROT3.branches] == [
        (F(0), F(2, 3), F(1), F(1, 3)),
        (F(2, 3), F(1), F(1), F(-2, 3))]
    assert all(b.slope == 1 for b in ROT3.branches)
    assert giet_value(ROT3, 0) == F(1, 3)
    assert giet_value(ROT3, F(2, 3)) == 0


def test_swap_is_valid_iet():
    assert all(b.slope == 1 for b in SWAP.branches)
    assert giet_value(SWAP, 0) == F(1, 2)
    assert is_identity_like(SWAP)


def is_identity_like(g):
    # swap is an involution of [0,1)
    for x in (F(0), F(1, 4), F(1, 2), F(3, 4)):
        if giet_value(g, giet_value(g, x)) != x:
            return False
    return True


def test_overlapping_images_rejected():
    with pytest.raises(GietError):
        giet_from_branches((0, 1), [(0, F(1, 2), 1, 0), (F(1, 2), 1, 1, F(-1, 2))])


@pytest.mark.parametrize("branches, message", [
    ([(0, F(1, 2), 1, F(1, 2))], "sources do not partition"),
    ([(0, F(1, 2), 1, F(1, 2)), (F(1, 3), 1, 1, F(-1, 3))], "sources do not partition"),
    ([(0, F(1, 2), 1, F(1, 2)), (F(1, 2), F(3, 2), 1, F(-1, 2))], "sources do not partition"),
    ([(0, F(1, 2), 1, F(1, 4)), (F(1, 2), 1, 1, F(-1, 2))], "images do not tile"),
    ([(0, F(1, 2), 1, F(1, 2)), (F(1, 2), 1, 1, F(1, 2))], "images do not tile"),
])
def test_sources_and_images_tile_the_interval(branches, message):
    with pytest.raises(GietError, match=message):
        giet_from_branches((0, 1), branches)


def test_inverse_and_preimage():
    inv = ROT3.inverse()
    for x in (F(0), F(1, 5), F(2, 3), F(9, 10)):
        assert giet_value(inv, giet_value(ROT3, x)) == x
        assert ROT3.preimage(giet_value(ROT3, x)) == x


def test_discontinuity_closure_oracles():
    D, closed = discontinuity_closure([ROT3], 3)
    assert sorted(D) == [F(0), F(1, 3), F(2, 3)]
    assert closed
    D2, closed2 = discontinuity_closure([SWAP], 2)
    assert sorted(D2) == [F(0), F(1, 2)]
    assert closed2
    rot4 = rotation(F(1, 4))
    _, c1 = discontinuity_closure([rot4], 1)
    assert not c1
    D4, c4 = discontinuity_closure([rot4], 4)
    assert c4 and sorted(D4) == [F(0), F(1, 4), F(1, 2), F(3, 4)]


def discontinuity_closure_two_pass(gens, L):
    """D_L by L rounds of BFS, then closed iff one more round from every
    point of D_L finds nothing new."""
    seedset = sorted({p for g in gens for p in g.jump_points()})
    steps = [op.preimage for op in _ops(gens)]
    order, _ = orbit_bfs(seedset, steps, L)
    return order, not orbit_bfs(order, steps, 1)[1]


# the benchmark's giet pool: rotations by p/q, q up to 5, p prime to q
ROTATION_POOL = [rotation(F(p, q)) for q in range(2, 6) for p in range(1, q)
                 if gcd(p, q) == 1][:8]


@pytest.mark.parametrize("L", range(6))
@pytest.mark.parametrize("gens", [[g] for g in ROTATION_POOL] + [[ROT3, SWAP]])
def test_discontinuity_closure_takes_one_pass(gens, L):
    # round L + 1 is run and dropped, not rerun from every point of D_L
    assert discontinuity_closure(gens, L) == discontinuity_closure_two_pass(gens, L)


def test_discontinuity_closure_at_the_edges():
    # L = 0 is the jump points alone; a rotation by 1/2 closes after one
    # round, before L = 4 is reached
    assert discontinuity_closure([ROT3], 0) == ([F(2, 3)], False)
    assert discontinuity_closure([ROT3], 0) == discontinuity_closure_two_pass([ROT3], 0)
    half = rotation(F(1, 2))
    assert discontinuity_closure([half], 4) == ([F(1, 2), F(0)], True)
    assert discontinuity_closure([half], 4) == discontinuity_closure_two_pass([half], 4)


def test_blow_up_rotation_third():
    res = blow_up([ROT3], 3, F(1, 4))
    assert res.exact
    assert len(res.blown_points) == 3
    # the blown point at the hull's left edge opens no interior gap, so the
    # compact set carries one bounded gap per blown point strictly inside
    assert len(bounded_gaps(res.space)) == 2
    g = res.induced[0]
    # conjugacy F o rot = induced o F on sampled points
    for i in range(50):
        x = F(i, 50)
        assert apply(g, conjugate_point(res, x)) == conjugate_point(res, giet_value(ROT3, x))
    # break pairs sit exactly at the gaps blown from genuine jump points
    jumps = ROT3.jump_points()
    expected = set()
    for c, _ in res.blown_points:
        if c in jumps:
            gap = next(gp for gp in bounded_gaps(res.space)
                       if gp[0] < conjugate_point(res, c) <= gp[1])
            expected.update(gap)
    assert set(break_points(g)) == expected


def test_blow_up_swap():
    res = blow_up([SWAP], 2, F(1, 4))
    assert res.exact
    g = res.induced[0]
    assert is_identity(g) is False
    # the induced map swaps the two cells and breaks exactly at the blown
    # {1/2} gap
    gap = bounded_gaps(res.space)[0]
    assert set(break_points(g)) == set(gap)


def test_blow_up_identity_giet():
    # the half turn blows up its jump at 1/2, where the identity is continuous
    ident = giet_from_branches((0, 1), [(0, 1, 1, 0)])
    res = blow_up([ident, rotation(F(1, 2))], 2, F(1, 3))
    assert res.exact
    assert is_identity(res.induced[0])
    assert break_pairs(res.induced[0]) == []
    assert len(bounded_gaps(res.space)) == 1


def test_blow_up_rejects_bad_weight():
    with pytest.raises(GietError):
        blow_up([ROT3], 2, 1)
    with pytest.raises(GietError):
        blow_up([ROT3], 2, 0)
