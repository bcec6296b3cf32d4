"""Canonical maps on the ternary Cantor set, used across the tests.

All addresses are over the alphabet {0, 2}; orientations are +1 unless
noted.  H swaps the two halves, R is the reflection, G3 translates mass
toward 0, and A1/A2 admit an exact ping-pong certificate.  The prefix
tables are read from the bundled scenarios that use them.
"""

import json
from fractions import Fraction
from importlib import resources

from cantorwalk.giet import Giet, giet_from_branches
from cantorwalk.maps import (Branch, PAHomeo, PrefixTable, break_pairs, equals,
                             from_prefix_table, invert, pa_homeo)
from cantorwalk.rational import as_pair, rat
from cantorwalk.space import CompactSet, Piece, Region, ternary_cantor


def _scenario_tables(*names) -> dict:
    """Generator name -> prefix table over the named bundled scenarios."""
    tables = {}
    for name in names:
        path = resources.files("cantorwalk") / "scenarios" / f"{name}.json"
        for g in json.loads(path.read_text())["generators"]:
            tables[g["name"]] = PrefixTable(
                tuple((src, dst, int(sign)) for src, dst, sign in g["table"]))
    return tables


TABLES = {n: t for n, t in _scenario_tables("klein_four", "g3",
                                             "free_pair").items()
          if n in ("H", "R", "G3", "A1", "A2")}

DEFAULT_DEPTH = 3


def cantor_space(depth: int = DEFAULT_DEPTH) -> CompactSet:
    return ternary_cantor(depth)


def fixture(name: str, space: CompactSet = None) -> PAHomeo:
    if space is None:
        space = cantor_space()
    return from_prefix_table(TABLES[name], space, label=(name,))


def named_generators(names, space: CompactSet = None,
                     with_inverses: bool = False) -> dict:
    """Ordered name -> PAHomeo dict; inverses appended as name^-1."""
    if space is None:
        space = cantor_space()
    gens = {n: fixture(n, space) for n in names}
    if with_inverses:
        for n in list(gens):
            gens[n + "^-1"] = invert(gens[n])
    return gens


def endpoints(K: CompactSet) -> list:
    """The ends of K's intervals, sorted."""
    return sorted({x for iv in K.intervals for x in iv})


def region(K: CompactSet, pairs) -> Region:
    """The region of K holding the closed intervals (lo, hi) of pairs."""
    return Region.from_pieces(K, [Piece(lo, hi, True, True) for lo, hi in pairs])


def in_region(S: Region, x) -> bool:
    """Whether the rational x is a point of K that a piece of S holds."""
    x = as_pair(rat(x))
    return S.space._holds(x) and S._pieces_hold(x)


def cylinder_region(K: CompactSet, address: str) -> Region:
    return Region(K, (Piece._make((*K.ifs.cylinder(address), True, True)),))


def identity_map(space: CompactSet) -> PAHomeo:
    """The identity of K: one branch over K's hull, as pa_homeo stores it."""
    lo, hi = space.hull
    return pa_homeo(space, [Branch(lo, hi, Fraction(1), Fraction(0))])


def is_identity(f: PAHomeo) -> bool:
    return equals(f, identity_map(f.space))


def regular_on(f: PAHomeo, a, b) -> bool:
    """Whether [a, b] holds no break pair of f."""
    return not any(a <= p.a and p.b <= b for p in break_pairs(f))


def rotation(t) -> Giet:
    """x -> x + t mod 1 on [0, 1), for 0 < t < 1."""
    return giet_from_branches((0, 1), [(0, 1 - t, 1, t), (1 - t, 1, 1, t - 1)])


def giet_value(g: Giet, x):
    return g.branch_at(x).value(x)


def conjugate_point(res, x):
    """A blow-up's F(x): x plus the weights blown at points <= x."""
    return x + sum(al for c, al in res.blown_points if c <= x)
