"""The tiling check of maps._validate_ifs against the gap lookups it replaced.

Cylinders tile the limit set iff they are disjoint and their addresses form
a complete prefix code, whose sum of n^-len(address) over n maps is 1, so
_validate_ifs looks up no gap.  The reference below is the check it
replaced: every pair of neighbouring cylinders must bound a gap of the limit
set, found by reference.gaps_at.  Both are asked about
complete codes mapped onto complete codes, and about codes with a cylinder
dropped, duplicated or nested, or widened or narrowed so that it ends off
its cylinder.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk import maps
from cantorwalk.cli import _load_scenario_text, parse_scenario, run_scenario
from cantorwalk.maps import Branch, MapError, from_prefix_table
from cantorwalk.serialize import verify_certificate
from cantorwalk.space import CompactSet, Ifs

from fixtures import (NEGATIVE, TABLES, TERNARY, THREE_MAPS, UNEQUAL, cantor_space, cylinder,
                      decompose_into_cylinders)
from reference import gaps_at, reflection_symmetric_ref

SETS = (TERNARY, THREE_MAPS, UNEQUAL, NEGATIVE)
MUTATIONS = ("complete", "drop", "duplicate", "nest", "reach")


def _validate_ifs_ref(space, branches):
    """The tiling check by gap lookups: sorted, each cylinder ends where a
    gap of the limit set starts and its right neighbour starts where that
    gap ends."""
    if any(b.slope < 0 for b in branches) and not reflection_symmetric_ref(space.ifs):
        raise MapError("orientation-reversing branch on an asymmetric IFS")

    def antichain(cyls, what):
        cyls = sorted(cyls)
        lo, hi = space.hull
        if cyls[0][0] != lo or cyls[-1][1] != hi:
            raise MapError(f"{what} cylinders do not reach the extremes")
        for (l1, r1), (l2, r2) in zip(cyls, cyls[1:]):
            if not (r1 < l2 and (r1, l2) in gaps_at(space.ifs, r1)):
                raise MapError(f"{what} cylinders do not tile the limit set")

    img_cyls, src_cyls = [], []
    for b in branches:
        parts = decompose_into_cylinders(space, b.lo, b.hi)
        if not parts:
            raise MapError(f"branch source [{b.lo}, {b.hi}] not cylinder-aligned")
        if (parts[0][1], parts[-1][2]) != (b.lo, b.hi):
            raise MapError(f"branch source [{b.lo}, {b.hi}] does not end on the limit set")
        for w, clo, chi in parts:
            src_cyls.append((clo, chi))
            ia, ib = sorted((b.value(clo), b.value(chi)))
            dec = decompose_into_cylinders(space, ia, ib)
            if dec is None or len(dec) != 1:
                raise MapError(f"image of cylinder {w or 'hull'} is not a cylinder")
            img_cyls.append((ia, ib))
    antichain(src_cyls, "source")
    antichain(img_cyls, "image")


def _verdict(validate, space, branches):
    """None if validate accepts the branches, else its message."""
    try:
        validate(space, branches)
    except MapError as e:
        return str(e)
    return None


def _onto(src, dst, sign=1):
    """The affine branch carrying the interval src onto dst, increasing or
    decreasing."""
    (slo, shi), (dlo, dhi) = src, dst
    slope = (dhi - dlo) / (shi - slo) * sign
    return Branch(slo, shi, slope, (dlo if sign == 1 else dhi) - slope * slo)


@st.composite
def complete_code(draw, ifs, splits):
    """The cylinders of a complete prefix code, left to right: the hull's
    address with a drawn leaf split into its children `splits` times."""
    code = [""]
    for _ in range(splits):
        i = draw(st.integers(0, len(code) - 1))
        code[i:i + 1] = [code[i] + s for s in ifs.symbols]
    return [cylinder(ifs, w) for w in code], code


@st.composite
def mutated(draw, ifs, cyls, code, mutation):
    """The cylinders with one of them dropped, duplicated, joined by a
    child or its parent, or moved off its cylinder at one end."""
    cyls, i = list(cyls), draw(st.integers(0, len(cyls) - 1))
    if mutation == "drop" and len(cyls) > 1:
        del cyls[i]
    elif mutation == "duplicate":
        cyls.insert(i, cyls[i])
    elif mutation == "nest":
        w = code[i][:-1] if code[i] and draw(st.booleans()) else \
            code[i] + draw(st.sampled_from(ifs.symbols))
        cyls.insert(i, cylinder(ifs, w))
    elif mutation == "reach":
        lo, hi = cyls[i]
        d = (hi - lo) * F(draw(st.sampled_from((-2, -1, 1, 2, 4))), 4)
        cyls[i] = (lo - d, hi) if draw(st.booleans()) else (lo, hi + d)
    return cyls


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kraft_sum_matches_gap_lookups(data):
    # sources and images from two complete codes of one size, paired in a
    # drawn order; decreasing branches on the reflection-symmetric sets
    ifs = data.draw(st.sampled_from(SETS))
    K = CompactSet.from_ifs(ifs, 2)
    splits = data.draw(st.integers(0, 4))
    (src, src_code), (img, img_code) = (data.draw(complete_code(ifs, splits))
                                        for _ in range(2))
    order = data.draw(st.permutations(range(len(img))))
    img, img_code = [img[j] for j in order], [img_code[j] for j in order]
    mutation = data.draw(st.sampled_from(MUTATIONS))
    if data.draw(st.booleans()):
        src = data.draw(mutated(ifs, src, src_code, mutation))
    else:
        img = data.draw(mutated(ifs, img, img_code, mutation))
    signs = (1, -1) if ifs in (TERNARY, NEGATIVE) else (1,)
    branches = [_onto(s, d, data.draw(st.sampled_from(signs))) for s, d in zip(src, img)]
    verdict = _verdict(maps._validate_ifs, K, branches)
    assert verdict == _verdict(_validate_ifs_ref, K, branches)
    if mutation == "complete":
        assert verdict is None


@pytest.mark.parametrize("sources, images", [
    # [2/3, 1] onto [1/2, 1], which holds the one cylinder [2/3, 1]: the
    # images are disjoint and their addresses 0 and 2 a complete code, but
    # 2/3 goes to 1/2, in the gap (1/3, 2/3)
    ([(0, F(1, 3)), (F(2, 3), 1)], [(0, F(1, 3)), (F(1, 2), 1)]),
    # the addresses 0, 00 and 22 sum to 1/2 + 1/4 + 1/4 = 1 and reach both
    # extremes, but 00 lies in 0
    ([(0, F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), 1)],
     [(0, F(1, 3)), (0, F(1, 9)), (F(8, 9), 1)]),
])
def test_images_off_a_tiling_are_refused(sources, images):
    K = cantor_space(3)
    branches = [_onto(s, d) for s, d in zip(sources, images)]
    for validate in (maps._validate_ifs, _validate_ifs_ref):
        assert _verdict(validate, K, branches) == "image cylinders do not tile the limit set"
        assert _verdict(validate, K, branches[:1]) == "source cylinders do not reach the extremes"


def test_validation_looks_up_no_gap(tmp_path, monkeypatch):
    # building A1 from its prefix table and verifying the free_pair
    # certificate with no gap lookup in the program and no address
    # expansion: every source and image there is one cylinder, found by
    # descending to it
    scn = parse_scenario(_load_scenario_text("free_pair"))
    assert run_scenario(scn, str(tmp_path), False)[0] == 0
    doc = json.loads((tmp_path / "free_pair_certificate.json").read_text())
    K = cantor_space(3)
    a1 = from_prefix_table(TABLES["A1"], K, label=("A1",))

    # the program has no gap lookup left to call: gap_pairs and gaps_at
    # live in tests/reference.py
    for owner in (Ifs, CompactSet):
        for name in ("_gap_pairs", "gaps_at"):
            assert not hasattr(owner, name)

    def refuse(*args):
        raise AssertionError("an address expansion in map validation")

    monkeypatch.setattr(Ifs, "_expand", refuse)
    assert from_prefix_table(TABLES["A1"], K, label=("A1",)) == a1
    assert verify_certificate(doc)
