"""Seeded random walks of homeomorphism groups and their diagnostics.

All set and map computations feeding the statistics are exact; the
statistics themselves (measure estimates, log-distance fits, entropy) are
floating point and flagged as such.  Randomness comes from a counter-based
Philox4x64-10 stream (Salmon, Moraes, Dror and Shaw, SC '11) keyed by
(model seed, stream index), so every report is a deterministic function of
the model, the seed and the parameters.  The stream is computed here, bit
for bit the one numpy's Philox gives, with each block's words packed into
Python ints; nothing in this package loads numpy.
"""

from __future__ import annotations

import bisect
import math
import struct
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from typing import Iterable, NamedTuple, Optional

from .rational import (affine, as_pair, coprime_fraction, pair_keys, place_left,
                       place_right, rat, value_order)
from .maps import (PAHomeo, _apply, _push_runs, break_points, compose, image, invert,
                   equals)
from .space import CompactSet, Piece, Region, epsilon_neighborhood, measure_cells

TWO64 = 2 ** 64

DEFAULT_DELTA = Fraction(1, 9)
SPLIT_DEPTH = 14  # the levels _region_mass splits a cut cell into


class WalkError(ValueError):
    pass


# ---------------------------------------------------------------------------
# model and trajectories


class WalkModel(namedtuple("WalkModel", "space names gens probs seed")):
    __slots__ = ()

    def __new__(cls, space: CompactSet, names: tuple, gens: tuple, probs: tuple, seed: int):
        if not (len(names) == len(gens) == len(probs)):
            raise WalkError("names, generators and probabilities must align")
        if any(p <= 0 for p in probs):
            raise WalkError("probabilities must be positive (total support)")
        return super().__new__(cls, space, names, gens, probs, seed)

    @property
    def is_symmetric(self) -> bool:
        """S closed under inversion with matched probabilities."""
        for i, g in enumerate(self.gens):
            gi = invert(g)
            if not any(self.probs[j] == self.probs[i] and equals(gi, h)
                       for j, h in enumerate(self.gens)):
                return False
        return True


def make_model(space, named_gens: dict, probs=None, seed: int = 0) -> WalkModel:
    names = tuple(named_gens)
    gens = tuple(named_gens[n] for n in names)
    if probs is None:
        probs = [Fraction(1, len(gens))] * len(gens)
    return WalkModel(space, names, gens, tuple(rat(p) for p in probs), seed)


M0, M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # Philox round multipliers
W0, W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Weyl key increments


def _lanes(count: int) -> int:
    """count ones, 128 bits apart: the unit of a packed int's lanes."""
    return int.from_bytes((b"\1" + bytes(15)) * count, "little")


def _philox_words(k0: int, k1: int, first: int, count: int) -> list:
    """The four output words of Philox4x64-10 keyed by (k0, k1) < 2**64 on
    blocks first .. first + count - 1, block b's counter being b < 2**64:
    each word packed as one int whose 64-bit lanes lie 128 bits apart,
    block first's lowest.  A lane times a 64-bit multiplier fits in its
    128 bits, so a round is two multiplies and some shifts, masks and xors
    over all blocks at once."""
    ones = _lanes(count)
    low = (ones << 64) - ones
    # block b's counter b fills the low 8 of its lane's 16 bytes
    counters = struct.pack(f"<{count}Q", *range(first, first + count))
    lanes = bytearray(16 * count)
    for i in range(8):
        lanes[i::16] = counters[i::8]
    x0, x1, x2, x3 = int.from_bytes(lanes, "little"), 0, 0, 0
    # the round keys, and x1 and x3 as whole products, carry bits above 64
    # in their lanes (never past 128); one mask per word clears them
    k0, k1, w0, w1 = k0 * ones, k1 * ones, W0 * ones, W1 * ones
    for r in range(10):
        if r:
            k0 += w0
            k1 += w1
        p0, p1 = x0 * M0, x2 * M1
        x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0) & low, p1, ((p0 >> 64) ^ x3 ^ k1) & low, p0
    return [x0, x1 & low, x2, x3 & low]


class Trajectory:
    """The i.i.d. generator-index stream omega for one (model, stream) key:
    draw i is word i % 4 of Philox block i // 4 + 1 keyed by (seed, stream),
    each taken mod 2**64, as numpy's Philox gives it."""

    def __init__(self, model: WalkModel, stream: int = 0):
        self.model = model
        self.stream = stream
        self._indices: list[int] = []
        self._key = (model.seed % TWO64, stream % TWO64)
        # a draw u picks generator #{cut <= u}, the cuts being the cumulative
        # probabilities times 2**64 but the last (2**64, above every draw)
        cum, self._cuts = Fraction(0), []
        for p in model.probs[:-1]:
            cum += p
            self._cuts.append(int(cum * TWO64))
        # the forward words computed so far, by length
        self._fwd = {}

    def index(self, k: int) -> int:
        """The k-th index.  The first draw reaches k, and a later one at
        least doubles what is drawn; each draw is one Philox output, so the
        stream does not depend on the draw sizes."""
        have = len(self._indices)
        if have <= k:
            self._indices += self._draw(have, max(k + 1 - have, have))
        return self._indices[k]

    def _draw(self, start: int, n: int) -> tuple:
        """The indices of draws start .. start + n - 1.  Bit 64 of
        u + 2**64 - c is [u >= c], so per cut one add and mask count it in
        every lane; the four words' counts, 32 bits apart, read out in draw
        order."""
        first, count = start // 4, (start + n + 3) // 4 - start // 4
        ones = _lanes(count)
        high = ones << 64
        offsets = [(TWO64 - c) * ones for c in self._cuts]
        packed = 0
        for j, w in enumerate(_philox_words(*self._key, first + 1, count)):
            packed |= sum((w + o) & high for o in offsets) << 32 * j
        drawn = struct.unpack(f"<{4 * count}I", (packed >> 64).to_bytes(16 * count, "little"))
        return drawn[start - 4 * first:start - 4 * first + n]

    def step_map(self, k: int) -> PAHomeo:
        return self.model.gens[self.index(k)]


def forward_word(t: Trajectory, n: int) -> PAHomeo:
    """f_omega^n = f_{omega_{n-1}} o ... o f_{omega_0}, for n >= 1: the
    longest cached word of length m < n, if any, followed by the letters
    m..n-1 multiplied by halves; composition is associative branch for
    branch, so any bracketing gives the same map."""
    words = t._fwd
    if n not in words:
        m = max((k for k in words if k < n), default=0)
        maps = [t.step_map(k) for k in range(m, n)]
        while len(maps) > 1:
            maps = [reduce(lambda u, v: compose(v, u), maps[i:i + 2])
                    for i in range(0, len(maps), 2)]
        words[n] = compose(maps[0], words[m]) if m else maps[0]
    return words[n]


# ---------------------------------------------------------------------------
# cells and measures


class CellMeasure(namedtuple("CellMeasure", "depth masses")):
    __slots__ = ()

    def __new__(cls, depth: int, masses: tuple):
        total = sum(masses)
        if abs(total - 1.0) > 1e-12:
            raise WalkError(f"masses sum to {total}")
        return super().__new__(cls, depth, masses)


def estimate_stationary_measure(model: WalkModel, n_steps: int, depth: int) -> CellMeasure:
    """Birkhoff cell-occupation average of the chain x' = f_omega(x),
    pooled over four restarts from cell-endpoint starts.  Float-flagged."""
    cells = measure_cells(model.space, depth)
    gens_f = [[tuple(n / d for n, d in b[:4]) for b in g.branches]
              for g in model.gens]
    branch_los = [[b[0] for b in branches] for branches in gens_f]
    los, his = [n / d for (n, d), _ in cells], [n / d for _, (n, d) in cells]
    visited = []
    for r in range(4):
        t = Trajectory(model, stream=r)
        t.index(n_steps - 1)
        x = los[r % len(cells)]
        for gi in t._indices[:n_steps]:
            visited.append(x)
            branches = gens_f[gi]
            j = bisect.bisect_right(branch_los[gi], x, 1) - 1  # x < every lo: 0
            lo, hi, s, o = branches[j]
            if not lo <= x <= hi:
                # float drift can push x just past a source endpoint; pick
                # the nearest branch, the exact point always lies inside one
                if j + 1 < len(branches):
                    lo2, hi2, _, _ = branches[j + 1]
                    if max(0.0, lo2 - x, x - hi2) < max(0.0, lo - x, x - hi):
                        lo, hi, s, o = branches[j + 1]
                x = min(max(x, lo), hi)
            x = s * x + o
    # x may drift into a gap; past the gap's midpoint it counts to the next
    # cell, so cell i holds the visits in (mids[i - 1], mids[i]]
    visited.sort()
    ends = [bisect.bisect_right(visited, (h + l) / 2) for h, l in zip(his, los[1:])]
    counts = [b - a for a, b in zip([0] + ends, ends + [len(visited)])]
    return CellMeasure(depth, tuple(c / len(visited) for c in counts))


def invariance_residual(mu: CellMeasure, model: WalkModel, masses: dict):
    """Max violation of the harmonic-measure equation, in floats, as
    (averaged_residual, per_generator_residual): averaged uses
    mu(c) = sum_s P(s) mu(s^{-1} c) and per-generator is
    max |mu(c) - mu(g^{-1} c)|, with the uniform-split convention for
    preimages finer than the cell depth.  Whether an exact measure is
    invariant is verify.verify_invariant_measure's question.  masses is
    _image_mass's dict for mu."""
    cells = measure_cells(model.space, mu.depth)
    invs = [invert(g) for g in model.gens]
    images = [masses.setdefault(ginv.branches, {}) for ginv in invs]
    per_gen = averaged = 0.0
    for ci, cell in enumerate(cells):
        acc = 0.0
        for gi, ginv in enumerate(invs):
            pm = _image_mass(masses, images[gi], mu, cells, ginv, cell)
            per_gen = max(per_gen, abs(float(mu.masses[ci]) - pm))
            acc += float(model.probs[gi]) * pm
        averaged = max(averaged, abs(float(mu.masses[ci]) - acc))
    return averaged, per_gen


# ---------------------------------------------------------------------------
# entropy


def _region_mass(mu: CellMeasure, cells, space: CompactSet, region: Region) -> float:
    """Mass of a region under mu, splitting cells uniformly (each IFS child
    carries half the parent mass) when the region cuts through a cell; a cell
    off the region's hull meets K and not the region, adding +0.0, unsummed.
    The region's pieces are sorted, disjoint and maximal, so a closed part
    [a, b] of K lies in the region iff it lies in the last piece starting at
    or before a, and meets it iff that piece or the next one holds a point
    of it, flags included."""
    ps, lo_keys = region.pieces, region._lo_keys

    def portion(lo, hi, depth_left) -> float:
        inside, meets = True, False
        for kl, kr in space._meeting(lo, hi):
            # [a, b]: the cell's part of this interval of K
            (an, ad) = a = kl if kl[0] * lo[1] > lo[0] * kl[1] else lo
            bn, bd = kr if kr[0] * hi[1] < hi[0] * kr[1] else hi
            i, held = place_right(lo_keys, a), False
            if i:
                (ln, ld), (hn, hd), lc, hc = ps[i - 1]
                held = (ln * ad < an * ld or lc) and ((c := bn * hd - hn * bd) < 0 or c == 0 and hc)
                meets |= ((c := hn * ad - an * hd) > 0 or c == 0 and hc) and (
                    ln * bd < bn * ld or lc)
            if not meets and i < len(ps):
                (ln, ld), _, lc, _ = ps[i]
                meets = (c := ln * bd - bn * ld) < 0 or c == 0 and lc
            inside &= held
            if meets and not inside:
                break
        if inside:
            return 1.0
        if not meets:
            return 0.0
        if space.ifs is None or depth_left <= 0:
            # fall back to the length fraction of the overlap
            cell = Piece._make((lo, hi, True, True))
            inter = Region(space, (cell,)).intersect(region)
            return float(sum(p.hi - p.lo for p in inter.pieces) / (cell.hi - cell.lo))
        # children of [lo, hi] under the IFS self-similarity
        kids = space.ifs._child_pairs(lo, hi)
        return sum(portion(clo, chi, depth_left - 1) / len(kids)
                   for clo, chi in kids)

    total = 0.0
    if not ps:
        return total
    a = place_left(pair_keys([r for _, r in cells]), ps[0][0])
    b = place_right(pair_keys([l for l, _ in cells]), ps[-1][1])
    for m, (l, r) in zip(mu.masses[a:b], cells[a:b]):
        total += float(m) * portion(l, r, SPLIT_DEPTH)
    return total


def _image_mass(masses: dict, images: dict, mu: CellMeasure, cells, f: PAHomeo,
                cell: tuple) -> float:
    """_region_mass of image(f, cell), for an int-pair cell.  The image is
    kept in images, the dict that masses holds under f's branches, and its
    mass in masses under its pieces: one dict serves one measure mu, so the
    residual and the entropy of a generating set closed under inverses share
    images and masses (an inverse inverted again has the map's branches)."""
    img = images.get(cell)
    if img is None:
        img = images[cell] = image(f, Region(f.space, (Piece._make((*cell, True, True)),)))
    m = masses.get(img.pieces)
    if m is None:
        m = masses[img.pieces] = _region_mass(mu, cells, f.space, img)
    return m


def estimate_entropy(mu: CellMeasure, model: WalkModel, masses: dict) -> float:
    """h ~= sum_s P(s) sum_c mu(c) log(mu(c)/mu(s(c))), s(c) the exact
    image of cell c of mu's depth; cells of zero mass or image mass are
    skipped.  masses is _image_mass's dict for mu."""
    cells = measure_cells(model.space, mu.depth)
    per_gen = []
    for g, p in zip(model.gens, model.probs):
        term, images = 0.0, masses.setdefault(g.branches, {})
        for ci, cell in enumerate(cells):
            m = float(mu.masses[ci])
            if m <= 0:
                continue
            im = _image_mass(masses, images, mu, cells, g, cell)
            if im <= 0:
                continue
            term += m * math.log(m / im)
        per_gen.append(term)
    return sum(float(p) * term for p, term in zip(model.probs, per_gen))


# ---------------------------------------------------------------------------
# repulsor scan


class CellScan(NamedTuple):
    repulsors: tuple[bool, ...]  # per cell: image diameter >= delta at every step from n//2
    diameters: tuple  # exact image diameters per cell as int pairs, steps 0..n

    @property
    def repulsor_count(self) -> int:
        return sum(self.repulsors)


def cell_image_runs(t: Trajectory, runs, n: int):
    """For k = 0..n, the images under f_omega^k of sorted closed runs (lo, hi,
    tag) of int pairs, composing no word: K's cells tagged by index, or a
    tagged tiling of K's hull.  The images of runs that cover K are sorted
    runs, and only a gap of K (of its limit set on IFS sets) separates
    neighbours, which merge when they share a tag.  Each step pushes the
    list it last yielded, which a caller may retag in place."""
    yield runs
    # the last letter first, so that the trajectory draws them all at once
    for g in [t.step_map(k) for k in range(n - 1, -1, -1)][::-1]:
        runs = _push_runs(g, runs)
        yield runs


def run_diameters(runs, count: int) -> list[tuple]:
    """The count cells' image diameters as int pairs: last run's hi - first run's lo."""
    first = {c: lo for lo, _, c in reversed(runs)}
    last = {c: hi for _, hi, c in runs}
    return [affine((1, 1), last[c], (-first[c][0], first[c][1])) for c in range(count)]


def contraction_scan(t: Trajectory, depth: int, n: int) -> CellScan:
    K = t.model.space
    cells = measure_cells(K, depth)
    steps = cell_image_runs(t, [(*c, i) for i, c in enumerate(cells)], n)
    diam_series = tuple(zip(*(run_diameters(runs, len(cells)) for runs in steps)))
    dn, dd = as_pair(DEFAULT_DELTA)
    scan = CellScan(tuple(all(a * dd >= dn * b for a, b in series[n // 2:])
                          for series in diam_series), diam_series)
    lo, hi = K.hull
    if scan.repulsor_count * DEFAULT_DELTA > hi - lo:
        raise WalkError("repulsor count bound violated: "
                        f"{scan.repulsor_count} * {DEFAULT_DELTA} > diam(K)")
    return scan


# ---------------------------------------------------------------------------
# break accumulation


def _single_linkage(spans: Iterable[tuple], radius: tuple) -> list:
    """The hulls [lo, hi] of the clusters of the spans (lo, hi), int pairs
    in order of both ends, split where a span starts more than the int pair
    radius past the hull before it; a point p is the span (p, p).  No sort:
    sorted int pairs are in lexicographic order, not in order of value."""
    rn, rd = radius
    clusters = []
    for lo, hi in spans:
        if clusters:
            (ln, ld), (hn, hd) = lo, clusters[-1][1]
            if (ln * hd - hn * ld) * rd <= rn * ld * hd:
                clusters[-1][1] = hi
                continue
        clusters.append([lo, hi])
    return clusters


def _extremes(clusters, hull) -> list:
    """One point per cluster of int pairs, as a Fraction: its end toward the
    hull extreme nearer the cluster's midpoint."""
    twice_center = hull[0] + hull[1]
    ends = [(coprime_fraction(*lo), coprime_fraction(*hi)) for lo, hi in clusters]
    return [hi if lo + hi >= twice_center else lo for lo, hi in ends]


def _repulsor_extremes(repulsors, cells, hull) -> list:
    """Cluster representatives of the endpoints of the repulsor cells,
    clustered at three widths of the first of all cells; the cells are
    sorted and disjoint, their ends int pairs."""
    (ln, ld), (hn, hd) = cells[0]
    return _extremes(_single_linkage([(x, x) for cell in repulsors for x in cell],
                                     (3 * (hn * ld - ln * hd), ld * hd)), hull)


def break_accumulation(t: Trajectory, n: int) -> list:
    """The clusters at radius 1/27 of all pullbacks of generator break
    points through forward words up to length n, exactly, as int-pair
    hulls.  The pullbacks U_i through the letters k-1, ..., i of every
    k <= n are the break points and letter i's inverse image of U_{i+1},
    so no word is composed or inverted."""
    base = {as_pair(p) for g in t.model.gens for p in break_points(g)}
    inverses = {gi: invert(t.model.gens[gi]) for gi in {t.index(k) for k in range(n)}}
    acc = base
    for i in range(n - 1, -1, -1):
        inverse = inverses[t.index(i)]
        acc = base | {_apply(inverse, p) for p in acc}
    acc = list(acc)
    return _single_linkage([(acc[i], acc[i]) for i in value_order([(p,) for p in acc])], (1, 27))


# ---------------------------------------------------------------------------
# global contraction report


class ContractionReport(NamedTuple):
    F: tuple[Fraction, ...]
    p: Optional[int]  # None is the infinity sentinel
    lambda_fit: float
    scan: CellScan  # the cell scan F was drawn from


def global_contraction_report(t: Trajectory, depth: int, n: int, eps) -> ContractionReport:
    eps = rat(eps)
    K = t.model.space
    scan = contraction_scan(t, depth, n)
    cells = measure_cells(K, depth)
    # F: the repulsor cluster representatives, plus those of the break
    # accumulation clusters not within eps of one already taken
    F = _repulsor_extremes([c for r, c in zip(scan.repulsors, cells) if r], cells, K.hull)
    for cand in _extremes(break_accumulation(t, min(n, 12)), K.hull):
        if all(abs(cand - f) > eps for f in F):
            F.append(cand)
    F = sorted(set(F))
    off = Region.whole(K).difference(epsilon_neighborhood(F, eps, K))
    # p is finite only for at most 8 points of F and 8 image clusters
    if len(F) > 8 or off.is_empty():
        return ContractionReport(tuple(F), None, 0.0, scan)
    img = off  # image(forward_word(t, n), off), one letter at a time
    for k in range(n):
        img = image(t.step_map(k), img)
    # cluster the image pieces at scale DEFAULT_DELTA; each cluster must itself be
    # tiny for the walk to count as contracting, and one ball per cluster
    # with radius e^{-n*lam} := max cluster half-diameter covers exactly
    clusters = [(coprime_fraction(*a), coprime_fraction(*b))
                for a, b in _single_linkage([p[:2] for p in img.pieces], as_pair(DEFAULT_DELTA))]
    cdiam = max(b - a for a, b in clusters)
    if cdiam >= DEFAULT_DELTA or len(clusters) > 8:
        return ContractionReport(tuple(F), None, 0.0, scan)
    radius = max(cdiam / 2, Fraction(1, 3 ** (4 * n)))
    lam = -math.log(float(radius)) / n
    balls = tuple(((a + b) / 2, radius) for a, b in clusters)
    ball_region = Region.from_pieces(K, tuple(
        Piece(c - r, c + r, True, True) for c, r in balls))
    if not img.subset_of(ball_region):
        return ContractionReport(tuple(F), None, lam, scan)
    return ContractionReport(tuple(F), len(balls), lam, scan)
