"""The exact checks of every certificate type, which certify's searches and
serialize's reader share; they read rational, space and maps, and no search."""

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .rational import affine, coprime_fraction, pair_cmp, pair_key
from .maps import PAHomeo, _push_runs, apply, compose, invert, maps_into
from .space import Piece, Region, measure_cells


class PingPongCertificate(NamedTuple):
    a1: PAHomeo
    a2: PAHomeo
    A1: Region
    B1: Region
    A2: Region
    B2: Region


class InvariantMeasureCertificate(NamedTuple):
    gens: tuple  # the generator maps, in order
    depth: int
    masses: tuple  # a Fraction per depth-d cell, in cell order
    consistency_depth: int


class FiniteOrbitCertificate(NamedTuple):
    gens: tuple  # the generator maps, in order
    orbit: tuple  # the orbit's points, sorted Fractions


class MorseSmaleCertificate(NamedTuple):
    g: PAHomeo
    periodic: tuple  # (point, period, multiplier) triples
    A: Region
    B: Region


class Verdict(NamedTuple):
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _then(m: Optional[PAHomeo], g: PAHomeo) -> PAHomeo:
    """The word map m followed by the letter g; None is the empty word."""
    return g if m is None else compose(g, m)


def _fixed_points(w: PAHomeo, attracting: bool = False) -> tuple[list, list]:
    """The fixed points of w's branches, as int pairs (x, slope) in branch
    order, only those of slope in (-1, 1) when attracting, and the sources
    (lo, hi) of the branches that are the identity.  A branch
    x -> s*x + o with s != 1 fixes x = o / (1 - s) when x lies on its
    closed source and in K's limit set."""
    points, sources = [], []
    for lo, hi, s, o, _, _ in w.branches:
        if s == (1, 1):
            if o == (0, 1):
                sources.append((lo, hi))
            continue
        sn, sd = s
        if attracting and abs(sn) >= sd:
            continue
        x = affine((sd, sd - sn) if sd > sn else (-sd, sn - sd), o)  # o / (1 - s)
        if pair_cmp(lo, x) <= 0 <= pair_cmp(hi, x) and \
                w.space.contains_limit_point(coprime_fraction(*x)):
            points.append((x, s))
    return points, sources


def verify_ping_pong(cert: PingPongCertificate) -> Verdict:
    """Exact check of the ping-pong hypotheses; true certifies that a1 and
    a2 generate a rank-2 free group (the reverse inclusions follow from
    bijectivity, so two inclusions suffice)."""
    regs = {"A1": cert.A1, "B1": cert.B1, "A2": cert.A2, "B2": cert.B2}
    for name, reg in regs.items():
        if reg.is_empty():
            return Verdict(False, f"{name} is empty")
    names = list(regs)
    for i in range(4):
        for j in range(i + 1, 4):
            if not regs[names[i]].disjoint_from(regs[names[j]]):
                return Verdict(False, f"{names[i]} meets {names[j]}")
    K = cert.a1.space
    for i, a in (("1", cert.a1), ("2", cert.a2)):
        off = Region.whole(K).difference(regs["A" + i])
        if not maps_into(a, off, regs["B" + i]):
            return Verdict(False, f"image(a{i}, K off A{i}) not inside B{i}")
    return Verdict(True)


def invariance_rows(gens: Sequence[PAHomeo], cs) -> list:
    """The equations mu(c) = mu(g^{-1} c) expressible on the sorted cells
    cs (int-pair intervals), as (generator index, cell index, js) with
    g^{-1}(c) the union of the cells js.  g pushes a tiling of K forward:
    the cells and, as open runs ~j before cell j, the parts of K between
    cells finer than K's intervals.
    Runs and cells end in K, so they meet in K iff they meet as intervals;
    c has a row iff every run meeting it is from a cell with all runs in c.
    No cell end is a point that two branch sources share (on plain sets the
    cells are K's intervals, and sources meet only inside them; on IFS sets
    sources are disjoint cylinders), so no one-point run of one cell lies
    beside a run of another at the same point."""
    rights = {r for _, r in gens[0].space.ends}
    tiling = []
    for j, (lo, hi) in enumerate(cs):
        if tiling and tiling[-1][1] not in rights:
            tiling.append((tiling[-1][1], lo, ~j))
        tiling.append((lo, hi, j))
    rows = []
    for gi, g in enumerate(gens):
        home, sources, i = {}, [set() for _ in cs], 0
        for lo, hi, j in _push_runs(g, tiling):
            while pair_cmp(cs[i][1], lo) < 0:
                i += 1
            inside = None  # the one cell holding the run, else -1
            for c in range(i, len(cs)):
                l, r = cs[c]
                if pair_cmp(l, hi) > 0 or j < 0 and pair_cmp(l, hi) == 0:
                    break
                if j >= 0 or pair_cmp(r, lo) > 0:
                    sources[c].add(j)
                held = pair_cmp(l, lo) <= 0 <= pair_cmp(r, hi)
                inside = c if inside is None and held else -1
            home[j] = inside if home.get(j, inside) == inside else -1
        rows += [(gi, ci, sorted(js)) for ci, js in enumerate(sources)
                 if all(j >= 0 and home[j] == ci for j in js)]
    return rows


def _is_invariant(inv_rows, masses) -> bool:
    """Whether the masses satisfy the invariance rows."""
    return all(masses[ci] == sum(masses[j] for j in js)
               for _, ci, js in inv_rows)


def verify_invariant_measure(cert: InvariantMeasureCertificate) -> Verdict:
    """Standalone re-check of a serialized invariant-measure certificate."""
    cells = measure_cells(cert.gens[0].space, cert.depth)
    masses = cert.masses
    if len(masses) != len(cells):
        return Verdict(False, "mass vector does not match the cell count")
    if sum(masses) != 1:
        return Verdict(False, "masses do not sum to 1")
    if any(m < 0 for m in masses):
        return Verdict(False, "negative mass")
    if cert.consistency_depth < cert.depth:
        return Verdict(False, "consistency_depth is below the depth")
    inv_rows = invariance_rows(cert.gens, cells)
    skipped = len(cert.gens) * len(cells) - len(inv_rows)
    if skipped:
        return Verdict(False, f"{skipped} invariance equations are not "
                              f"expressible at depth {cert.depth}")
    if not _is_invariant(inv_rows, masses):
        return Verdict(False, "invariance equation violated")
    return Verdict(True)


def verify_finite_orbit(cert: FiniteOrbitCertificate) -> Verdict:
    """Standalone re-check of a serialized finite-orbit certificate.  The
    generators alone are applied: a finite S with g(S) inside S for an
    injective g has g(S) = S, so g^-1(S) = S as well."""
    pts = set(cert.orbit)
    if not pts:
        return Verdict(False, "empty orbit")
    for op in cert.gens:
        for p in pts:
            if apply(op, p) not in pts:
                return Verdict(False, f"orbit not stable at {p}")
    return Verdict(True)


class PeriodicReport(NamedTuple):
    points: tuple  # (point, period, multiplier), least periods, sorted
    families: tuple  # (lo, hi, period) intervals of non-hyperbolic points


def periodic_points(f: PAHomeo, max_period: int) -> PeriodicReport:
    """Exact enumeration by powers: the fixed points of f^p are those of the
    branches of f^p = f∘f^(p-1), composed once per period after the first.
    Each point keeps its least period, with that branch's slope as its
    multiplier; points are sorted.  A branch of f^p that is the identity is a non-hyperbolic family
    (lo, hi, p), unless a family of a period dividing p already covers it;
    families come out in order of period, then source."""
    found, fams, fp = {}, [], None
    for p in range(1, max_period + 1):
        fp = _then(fp, f)
        points, sources = _fixed_points(fp)
        for x, s in points:
            found.setdefault(x, (p, s))
        for lo, hi in sources:
            if not any(p % q == 0 and pair_cmp(a, lo) <= 0 <= pair_cmp(b, hi)
                       for a, b, q in fams):
                fams.append((lo, hi, p))
    pts = tuple((coprime_fraction(*x), p, coprime_fraction(*s))
                for x, (p, s) in sorted(found.items(), key=lambda i: pair_key(i[0])))
    return PeriodicReport(pts, tuple((coprime_fraction(*lo), coprime_fraction(*hi), p)
                                     for lo, hi, p in fams))


def _constraining_slope_max(f: PAHomeo, region: Region) -> Fraction:
    """Max |slope| over branches whose source meets the region in more than
    one point of K.  A branch touching the region only in an isolated point
    constrains no difference quotient there, so it is vacuous for the
    pointwise slope bound."""
    best = (0, 1)
    for b in f.branches:
        parts = Region(f.space, (Piece._make(b[:2] + (True, True)),)).intersect(region)._parts()
        if not parts or parts[0][0] == parts[-1][1]:
            continue
        best = max(best, (abs(b[2][0]), b[2][1]), key=pair_key)
    return coprime_fraction(*best)


def check_morse_smale(f: PAHomeo, A: Region, B: Region):
    """Certificate iff |f'| < 1 off A, |(f^-1)'| < 1 off B, A and B are
    disjoint, and all periodic points up to the horizon are hyperbolic; the
    image inclusion f(K off A) in B, though implied by the slope bounds, is
    re-verified explicitly.  Each periodic point x, a point of K, then sits
    in A or B: if x is off A, f(x) is in B, and B is off A, so f^k(x) stays
    in B for every k >= 1 and x = f^p(x) is in B."""
    K = f.space
    if A.is_empty() or B.is_empty():
        return Verdict(False, "A and B must be nonempty")
    if not A.disjoint_from(B):
        return Verdict(False, "A meets B")
    off_a = Region.whole(K).difference(A)
    off_b = Region.whole(K).difference(B)
    if _constraining_slope_max(f, off_a) >= 1:
        return Verdict(False, "slope off A not below 1")
    finv = invert(f)
    if _constraining_slope_max(finv, off_b) >= 1:
        return Verdict(False, "inverse slope off B not below 1")
    if not maps_into(f, off_a, B):
        return Verdict(False, "image of K off A escapes B")
    horizon = max(4, min(6, len(f.branches)))
    rep = periodic_points(f, horizon)
    if rep.families:
        return Verdict(False, "non-hyperbolic periodic family")
    for x, per, mult in rep.points:
        if abs(mult) == 1:
            return Verdict(False, f"non-hyperbolic periodic point {x}")
    return MorseSmaleCertificate(f, rep.points, A, B)


def verify_morse_smale(cert: MorseSmaleCertificate) -> Verdict:
    """Standalone re-check of a serialized Morse-Smale certificate, its
    periodic points included."""
    res = check_morse_smale(cert.g, cert.A, cert.B)
    if not res:
        return res
    if res.periodic != cert.periodic:
        return Verdict(False, "periodic points differ from the recomputed ones")
    return Verdict(True)
