"""Generalized interval exchange transformations and their blow-ups.

A Giet is a bijection of [a, b) built from finitely many increasing affine
branches on half-open sources.  Blowing up the (truncated) orbit of its
discontinuities turns the group action into piecewise-affine homeomorphisms
of a compact set with one gap per blown point; break pairs of the induced
maps sit exactly at the blown discontinuities.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence

from .rational import as_pair, rat
from .maps import (Branch, MapError, PAHomeo, _tiles, invert_branches, orbit_bfs,
                   pa_homeo)
from .space import CompactSet, SpaceError


class GietError(ValueError):
    pass


class Giet(NamedTuple):
    a: Fraction
    b: Fraction
    branches: tuple[Branch, ...]  # increasing; the source of each is [lo, hi)

    def branch_at(self, x: Fraction) -> Branch:
        for br in self.branches:
            if br.lo <= x < br.hi:
                return br

    def preimage(self, y: Fraction) -> Fraction:
        for br in self.branches:
            ia, ib = br.ends
            if ia <= y < ib:
                return br.preimage(y)
        raise GietError(f"{y} not in the image [{self.a}, {self.b})")

    def inverse(self) -> "Giet":
        return Giet(self.a, self.b, invert_branches(self.branches))

    def jump_points(self) -> list[Fraction]:
        """Interior points where the map is genuinely discontinuous."""
        out = []
        for b1, b2 in zip(self.branches, self.branches[1:]):
            t = b1.hi
            if b1.value(t) != b2.value(t):
                out.append(t)
        return out


def giet_from_branches(interval, branches) -> Giet:
    a, b = rat(interval[0]), rat(interval[1])
    if a >= b:
        raise GietError("empty interval")
    bs = []
    for spec in branches:
        lo, hi, slope, offset = (rat(spec[0]), rat(spec[1]),
                                 rat(spec[2]), rat(spec[3]))
        if slope <= 0:
            raise GietError("slopes must be positive")
        if lo >= hi:
            raise GietError("degenerate branch source")
        bs.append(Branch(lo, hi, slope, offset))
    bs.sort(key=lambda br: br.lo)
    K = CompactSet(((as_pair(a), as_pair(b)),))
    if not _tiles(K, [br[:2] for br in bs]):
        raise GietError("sources do not partition the interval")
    if not _tiles(K, [br[4:] for br in bs]):
        raise GietError("images do not tile the interval")
    return Giet(a, b, tuple(bs))


# ---------------------------------------------------------------------------
# discontinuity orbits


def _ops(gens: Sequence[Giet]) -> list[Giet]:
    out = list(gens)
    out.extend(g.inverse() for g in gens)
    return out


def discontinuity_closure(gens: Sequence[Giet], L: int):
    """(D_L, closed): preimages of generator jumps under words of length
    <= L over the generators and their inverses, in BFS discovery order."""
    if L < 0:
        raise GietError("negative word length bound")
    seedset = sorted({p for g in gens for p in g.jump_points()})
    # a jump lies in (a, b), and a preimage of a point of [a, b) lies in
    # [a, b): giet_from_branches checks that the images tile [a, b]
    steps = [op.preimage for op in _ops(gens)]
    # closed: round L + 1, whose points are dropped, finds nothing new
    order, new = orbit_bfs(seedset, steps, L + 1)
    return order[:len(order) - len(new)], not new


# ---------------------------------------------------------------------------
# blow-up


class BlowUpResult(NamedTuple):
    space: CompactSet
    induced: tuple[PAHomeo, ...]  # the generators' maps that pa_homeo accepts
    blown_points: tuple[tuple[Fraction, Fraction], ...]  # (c, alpha_c)
    jumps: tuple[tuple[Fraction, Fraction], ...]  # (c, F(c-)) for c > a
    exact: bool
    defects: tuple[str, ...]


def blow_up(gens: Sequence[Giet], L: int, rho) -> BlowUpResult:
    rho = rat(rho)
    if not 0 < rho < 1:
        raise GietError("weight ratio must be in (0, 1)")
    g0 = gens[0]
    a, b = g0.a, g0.b
    for g in gens:
        if (g.a, g.b) != (a, b):
            raise GietError("generators live on different intervals")
    order, closed = discontinuity_closure(gens, L)
    weights = {c: rho ** (rank + 1) * (b - a) for rank, c in enumerate(order)}
    # the blown points in order, and the sums of their weights below each
    blown = sorted(weights)
    below = list(accumulate((weights[c] for c in blown), initial=0))

    def F(x: Fraction) -> Fraction:
        return x + below[bisect_right(blown, x)]

    def F_left(x: Fraction) -> Fraction:
        return x + below[bisect_left(blown, x)]

    # K_L: [F(a), F(b)] minus the open jump gaps at each blown c > a
    cuts = sorted(c for c in order if c > a)
    intervals = []
    start = F(a)
    for c in cuts:
        intervals.append((start, F_left(c)))
        start = F(c)
    intervals.append((start, F(b)))
    space = CompactSet.from_intervals(intervals)

    defects = []
    induced = []
    for gi, g in enumerate(gens):
        pts = set(order) | {a, b}
        for br in g.branches:
            pts.add(br.lo)
            pts.add(br.hi)
        # every point of [a, b) has a preimage, as the images tile [a, b]
        pts |= {g.preimage(c) for c in pts if a <= c < b}
        cutpts = sorted(p for p in pts if a <= p <= b)
        branches = []
        for p, q in zip(cutpts, cutpts[1:]):
            mid = (p + q) / 2
            br = g.branch_at(mid)
            s = br.slope
            # F is x + const on (p, q) and on its affine image, so the
            # induced map is affine between the corresponding gap edges
            cp = F(p) - p
            gy = br.value(mid)
            cq = F(gy) - gy
            branches.append(Branch(F(p), F_left(q), s,
                                   br.offset + cq - s * cp))
        # a map pa_homeo refuses is left out, and its defect says why
        try:
            induced.append(pa_homeo(space, branches, label=(f"g{gi}",)))
        except (MapError, SpaceError) as e:
            defects.append(f"generator {gi}: {e}")
    exact = closed and not defects
    return BlowUpResult(
        space=space,
        induced=tuple(induced),
        blown_points=tuple((c, weights[c]) for c in order),
        jumps=tuple((c, F_left(c)) for c in cuts),
        exact=exact,
        defects=tuple(defects),
    )
