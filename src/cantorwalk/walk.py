"""Seeded random walks of homeomorphism groups and their diagnostics.

All set and map computations feeding the statistics are exact; the
statistics themselves (measure estimates, log-distance fits, entropy) are
floating point and flagged as such.  Randomness comes from a counter-based
Philox stream keyed by (model seed, stream index), so every report is a
deterministic function of the model, the seed and the parameters.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .rational import rat
from .maps import (PAHomeo, apply, break_points, compose, identity_map,
                   image, invert, slope_range, equals)
from .space import CompactSet, Piece, Region, epsilon_neighborhood

TWO64 = 2 ** 64

DEFAULT_DELTA = Fraction(1, 9)
SLOPE_MARGIN = -0.01  # fitted log-slope below this counts as decay


class WalkError(ValueError):
    pass


# ---------------------------------------------------------------------------
# model and trajectories


@dataclass(frozen=True)
class WalkModel:
    space: CompactSet
    names: tuple[str, ...]
    gens: tuple[PAHomeo, ...]
    probs: tuple[Fraction, ...]
    seed: int

    def __post_init__(self):
        if not (len(self.names) == len(self.gens) == len(self.probs)):
            raise WalkError("names, generators and probabilities must align")
        if len(set(self.names)) != len(self.names):
            raise WalkError("duplicate generator names")
        if any(p <= 0 for p in self.probs):
            raise WalkError("probabilities must be positive (total support)")
        if sum(self.probs) != 1:
            raise WalkError(f"probabilities sum to {sum(self.probs)}, not 1")
        for g in self.gens:
            if g.space != self.space:
                raise WalkError("generator on a different space")

    @property
    def is_symmetric(self) -> bool:
        """S closed under inversion with matched probabilities."""
        for i, g in enumerate(self.gens):
            gi = invert(g)
            if not any(self.probs[j] == self.probs[i] and equals(gi, h)
                       for j, h in enumerate(self.gens)):
                return False
        return True

    def generator(self, name: str) -> PAHomeo:
        return self.gens[self.names.index(name)]


def make_model(space, named_gens: dict, probs=None, seed: int = 0) -> WalkModel:
    names = tuple(named_gens)
    gens = tuple(named_gens[n] for n in names)
    if probs is None:
        probs = [Fraction(1, len(gens))] * len(gens)
    return WalkModel(space, names, gens, tuple(rat(p) for p in probs), seed)


def _philox(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, stream), each taken mod 2**64;
    an explicit uint64 key keeps keys of 2**63 and more exact."""
    return np.random.Generator(np.random.Philox(
        key=np.array([seed % TWO64, stream % TWO64], dtype=np.uint64)))


class Trajectory:
    """The i.i.d. generator-index stream omega for one (model, stream) key."""

    CHUNK = 512

    def __init__(self, model: WalkModel, stream: int = 0):
        self.model = model
        self.stream = stream
        self._indices: list[int] = []
        self._rng = _philox(model.seed, stream)
        cum = Fraction(0)
        self._thresholds = []
        for p in model.probs:
            cum += p
            self._thresholds.append(int(cum * TWO64))
        self._fwd = {0: identity_map(model.space)}
        self._bwd = {0: identity_map(model.space)}

    def index(self, k: int) -> int:
        while len(self._indices) <= k:
            draws = self._rng.integers(0, TWO64 - 1, size=self.CHUNK,
                                       dtype=np.uint64, endpoint=True)
            for u in draws:
                self._indices.append(bisect.bisect_right(self._thresholds, int(u)))
        return self._indices[k]

    def step_map(self, k: int) -> PAHomeo:
        return self.model.gens[self.index(k)]

    def word(self, n: int) -> list[str]:
        return [self.model.names[self.index(k)] for k in range(n)]


def forward_word(t: Trajectory, n: int) -> PAHomeo:
    """f_omega^n = f_{omega_{n-1}} o ... o f_{omega_0}."""
    if n < 0:
        raise WalkError("negative horizon")
    top = max(k for k in t._fwd if k <= n)
    w = t._fwd[top]
    for k in range(top, n):
        w = compose(t.step_map(k), w)
        t._fwd[k + 1] = w
    return t._fwd[n]


def backward_word(t: Trajectory, n: int) -> PAHomeo:
    """f-bar_omega^n = f_{omega_0} o ... o f_{omega_{n-1}}."""
    if n < 0:
        raise WalkError("negative horizon")
    top = max(k for k in t._bwd if k <= n)
    w = t._bwd[top]
    for k in range(top, n):
        w = compose(w, t.step_map(k))
        t._bwd[k + 1] = w
    return t._bwd[n]


def forward_orbit(t: Trajectory, x, n: int) -> list[Fraction]:
    """Exact values f_omega^k(x) for k = 0..n, computed pointwise."""
    x = rat(x)
    out = [x]
    for k in range(n):
        x = apply(t.step_map(k), x)
        out.append(x)
    return out


def backward_value(t: Trajectory, x, k: int) -> Fraction:
    y = rat(x)
    for i in range(k - 1, -1, -1):
        y = apply(t.step_map(i), y)
    return y


# ---------------------------------------------------------------------------
# cells and measures


def measure_cells(space: CompactSet, depth: int):
    """Depth-d cells as closed intervals (the space's intervals when no IFS
    structure is available)."""
    if space.ifs is not None:
        return list(CompactSet.from_ifs(space.ifs, depth).intervals)
    return list(space.intervals)


@dataclass(frozen=True)
class CellMeasure:
    depth: int
    masses: tuple
    exact: bool

    def __post_init__(self):
        total = sum(self.masses)
        if self.exact:
            if total != 1:
                raise WalkError(f"exact masses sum to {total}")
        elif abs(total - 1.0) > 1e-12:
            raise WalkError(f"masses sum to {total}")


def uniform_cell_measure(space: CompactSet, depth: int) -> CellMeasure:
    cells = measure_cells(space, depth)
    return CellMeasure(depth, tuple([Fraction(1, len(cells))] * len(cells)), True)


def _cell_index(los, his, x) -> int:
    """The cell of the float x, given the cells' float ends."""
    i = bisect.bisect_right(los, x) - 1
    if i < 0:
        return 0
    if i + 1 < len(los):
        # x may have drifted into a gap; snap to the nearer cell
        if x > his[i]:
            gap_mid = (his[i] + los[i + 1]) / 2
            if x > gap_mid:
                return i + 1
    return i


def _branch_dist(b, x: float) -> float:
    lo, hi = b[0], b[1]
    return max(0.0, lo - x, x - hi)


def estimate_stationary_measure(model: WalkModel, n_steps: int, depth: int,
                                restarts: int = 4) -> CellMeasure:
    """Birkhoff cell-occupation average of the chain x' = f_omega(x),
    pooled over restarts from cell-endpoint starts.  Float-flagged."""
    if n_steps < 1:
        raise WalkError("need at least one step")
    cells = measure_cells(model.space, depth)
    counts = np.zeros(len(cells))
    gens_f = []
    for g in model.gens:
        gens_f.append([(float(b.lo), float(b.hi), float(b.slope), float(b.offset))
                       for b in g.branches])
    branch_los = [[b[0] for b in branches] for branches in gens_f]
    los, his = [float(l) for l, _ in cells], [float(r) for _, r in cells]
    starts = [los[r % len(cells)] for r in range(restarts)]
    for r in range(restarts):
        t = Trajectory(model, stream=r)
        x = starts[r]
        for k in range(n_steps):
            counts[_cell_index(los, his, x)] += 1
            gi = t.index(k)
            branches = gens_f[gi]
            j = bisect.bisect_right(branch_los[gi], x) - 1
            j = max(0, min(j, len(branches) - 1))
            # float drift can push x just past a source endpoint; pick the
            # nearest branch, the exact point always lies inside one
            best, bd = j, _branch_dist(branches[j], x)
            if j + 1 < len(branches) and _branch_dist(branches[j + 1], x) < bd:
                best = j + 1
            lo, hi, s, o = branches[best]
            x = s * min(max(x, lo), hi) + o
    masses = counts / counts.sum()
    return CellMeasure(depth, tuple(float(m) for m in masses), False)


def preimage_cell_indices(g: PAHomeo, cells):
    """For each cell c: the indices j with g^{-1}(c) = union of cells j,
    or None when the preimage is not expressible at this depth.

    The cells are sorted, disjoint and each meets the space, so only the
    cells meeting the hull of g^{-1}(c) can lie inside it."""
    ginv = invert(g)
    K = g.space
    out = []
    los, his = [l for l, _ in cells], [r for _, r in cells]
    cell_regions = [Region.from_pieces(K, (Piece(l, r, True, True),))
                    for l, r in cells]
    for reg in cell_regions:
        pre = image(ginv, reg)
        near = range(bisect.bisect_left(his, pre.pieces[0].lo),
                     bisect.bisect_right(los, pre.pieces[-1].hi))
        js = [j for j in near if cell_regions[j].subset_of(pre)]
        cover = Region.from_pieces(K, [p for j in js for p in cell_regions[j].pieces])
        out.append(js if pre.subset_of(cover) else None)
    return out


def invariance_rows(gens: Sequence[PAHomeo], cells) -> list:
    """The harmonic-measure equations mu(c) = mu(g^{-1} c) expressible on
    the cells, as (generator index, cell index, js) with g^{-1}(c) the
    union of the cells js; a preimage that is no union of cells gives no
    row."""
    return [(gi, ci, js) for gi, g in enumerate(gens)
            for ci, js in enumerate(preimage_cell_indices(g, cells))
            if js is not None]


def invariance_residual(mu: CellMeasure, model: WalkModel):
    """Max violation of the harmonic-measure equation over the constraints
    expressible at mu's depth.

    Returns (averaged_residual, per_generator_residual, skipped) where
    averaged uses mu(c) = sum_s P(s) mu(s^{-1} c) and per-generator is
    max |mu(c) - mu(g^{-1} c)|; skipped counts inexpressible constraints.
    """
    cells = measure_cells(model.space, mu.depth)
    if len(cells) != len(mu.masses):
        raise WalkError("measure depth incompatible with the space")
    K = model.space
    if mu.exact:
        # only constraints expressible at this depth, tested exactly; the
        # averaged residual of a cell is sum_s P(s) (mu(c) - mu(s^{-1} c))
        rows = invariance_rows(model.gens, cells)
        defects = {}
        for gi, ci, js in rows:
            pm = sum((mu.masses[j] for j in js), Fraction(0))
            defects.setdefault(ci, []).append(
                (model.probs[gi], mu.masses[ci] - pm))
        per_gen = max((abs(d) for ds in defects.values() for _, d in ds),
                      default=Fraction(0))
        averaged = max((abs(sum(p * d for p, d in ds))
                        for ds in defects.values() if len(ds) == len(model.gens)),
                       default=Fraction(0))
        return averaged, per_gen, len(model.gens) * len(cells) - len(rows)
    # float diagnostics: evaluate mu(g^{-1} c) with the uniform-split
    # convention for preimages finer than the cell depth
    invs = [invert(g) for g in model.gens]
    per_gen = averaged = 0.0
    for ci, (l, r) in enumerate(cells):
        cell = Region.from_pieces(K, (Piece(l, r, True, True),))
        acc = 0.0
        for gi, ginv in enumerate(invs):
            pre = image(ginv, cell)
            pm = _region_mass(mu, cells, K, pre)
            per_gen = max(per_gen, abs(float(mu.masses[ci]) - pm))
            acc += float(model.probs[gi]) * pm
        averaged = max(averaged, abs(float(mu.masses[ci]) - acc))
    return averaged, per_gen, 0


# ---------------------------------------------------------------------------
# entropy


@dataclass(frozen=True)
class EntropyReport:
    h_estimate: float
    per_generator: tuple
    depth: int
    skipped_cells: int


def _region_mass(mu: CellMeasure, cells, space: CompactSet, region: Region,
                 split_depth: int = 14) -> float:
    """Mass of a region under mu, splitting cells uniformly (each IFS child
    carries half the parent mass) when the region cuts through a cell."""

    def portion(lo, hi, depth_left) -> float:
        cell = Region.from_pieces(space, (Piece(lo, hi, True, True),))
        if cell.subset_of(region):
            return 1.0
        if cell.disjoint_from(region):
            return 0.0
        if space.ifs is None or depth_left <= 0:
            # fall back to length fraction of the overlap
            inter = cell.intersect(region)
            return float((inter.supremum() - inter.infimum()) / (hi - lo))
        # children of [lo, hi] under the IFS self-similarity
        (hlo, hhi), kids = space.ifs.hull, space.ifs._children
        scale = (hi - lo) / (hhi - hlo)
        return sum(portion(lo + (clo - hlo) * scale, lo + (chi - hlo) * scale,
                           depth_left - 1) / len(kids) for clo, chi in kids)

    total = 0.0
    for m, (l, r) in zip(mu.masses, cells):
        total += float(m) * portion(l, r, split_depth)
    return total


def estimate_entropy(mu: CellMeasure, model: WalkModel,
                     depth: Optional[int] = None) -> EntropyReport:
    """h ~= sum_s P(s) sum_c mu(c) log(mu(c)/mu(s(c))), s(c) the exact
    image of cell c; zero-mass cells are skipped and counted."""
    if depth is None:
        depth = mu.depth
    cells = measure_cells(model.space, depth)
    if len(cells) != len(mu.masses):
        raise WalkError("measure depth incompatible")
    skipped = 0
    per_gen = []
    support = [i for i, m in enumerate(mu.masses) if float(m) > 0]
    if not support:
        raise WalkError("measure has empty support")
    for g, p in zip(model.gens, model.probs):
        term = 0.0
        for ci, (l, r) in enumerate(cells):
            m = float(mu.masses[ci])
            if m <= 0:
                skipped += 1
                continue
            img = image(g, Region.from_pieces(model.space,
                                              (Piece(l, r, True, True),)))
            im = _region_mass(mu, cells, model.space, img)
            if im <= 0:
                skipped += 1
                continue
            term += m * math.log(m / im)
        per_gen.append(term)
    h = sum(float(p) * term for p, term in zip(model.probs, per_gen))
    return EntropyReport(h, tuple(per_gen), depth, skipped)


# ---------------------------------------------------------------------------
# synchronization dichotomy


def _fit_slope(ys: Sequence[float]) -> float:
    """Least-squares slope of ys against 0..len-1."""
    n = len(ys)
    if n < 2:
        return 0.0
    xs = range(n)
    mx = (n - 1) / 2
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _tail_verdict(tail, delta, far: str, near: str):
    """(verdict, rate) for the tail of a distance or diameter series: `far`
    if it stays at least delta; `near`, with the fitted decay rate, if its
    log decays and it ends below delta; else 'undecided'."""
    if all(d >= delta for d in tail):
        return far, 0.0
    slope = _fit_slope([math.log(float(d)) if d > 0 else math.log(1e-300)
                        for d in tail])
    if slope < SLOPE_MARGIN and tail[-1] < delta:
        return near, -slope
    return "undecided", 0.0


def _pair_verdict(t: Trajectory, x, y, delta, n: int):
    """classify_pair's verdict with its fitted decay rate."""
    x, y, delta = rat(x), rat(y), rat(delta)
    if n < 1:
        raise WalkError("horizon must be positive")
    if x == y:
        return "synchronized", 0.0
    dists = [abs(a - b) for a, b in zip(forward_orbit(t, x, n),
                                        forward_orbit(t, y, n))]
    return _tail_verdict(dists[n // 2:], delta, "separated", "synchronized")


def classify_pair(t: Trajectory, x, y, delta=DEFAULT_DELTA, n: int = 60) -> str:
    """Lemma-style dichotomy verdict for one pair along one trajectory:
    'synchronized', 'separated' or 'undecided'."""
    return _pair_verdict(t, x, y, delta, n)[0]


@dataclass(frozen=True)
class DichotomyReport:
    delta: Fraction
    lambda_fit: float
    synchronized: int
    separated: int
    undecided: int
    horizon: int


def dichotomy_report(model: WalkModel, pairs, delta=DEFAULT_DELTA,
                     n: int = 60, stream_base: int = 0) -> DichotomyReport:
    delta = rat(delta)
    counts = {"synchronized": 0, "separated": 0, "undecided": 0}
    rates = []
    for i, (x, y) in enumerate(pairs):
        t = Trajectory(model, stream=stream_base + i)
        verdict, rate = _pair_verdict(t, x, y, delta, n)
        counts[verdict] += 1
        if verdict == "synchronized" and rat(x) != rat(y):
            rates.append(rate)
    lam = float(np.mean(rates)) if rates else 0.0
    return DichotomyReport(delta, lam, counts["synchronized"],
                           counts["separated"], counts["undecided"], n)


# ---------------------------------------------------------------------------
# attractor / repulsor scan


@dataclass(frozen=True)
class CellScan:
    verdicts: tuple[str, ...]  # attractor | repulsor | undecided per cell
    rates: tuple[float, ...]
    delta: Fraction
    depth: int
    horizon: int
    diameters: tuple  # exact image diameters per cell, steps 0..horizon

    @property
    def repulsor_count(self) -> int:
        return sum(1 for v in self.verdicts if v == "repulsor")


def contraction_scan(t: Trajectory, depth: int, n: int,
                     delta=DEFAULT_DELTA) -> CellScan:
    delta = rat(delta)
    K = t.model.space
    cells = measure_cells(K, depth)
    regions = [Region.from_pieces(K, (Piece(l, r, True, True),))
               for l, r in cells]
    diam_series = [[] for _ in cells]
    for k in range(n + 1):
        w = forward_word(t, k)
        for i, reg in enumerate(regions):
            diam_series[i].append(image(w, reg).diameter())
    verdicts, rates = zip(*(_tail_verdict(series[n // 2:], delta,
                                          "repulsor", "attractor")
                            for series in diam_series))
    scan = CellScan(verdicts, rates, delta, depth, n,
                    tuple(map(tuple, diam_series)))
    lo, hi = K.hull
    if scan.repulsor_count * delta > hi - lo:
        raise WalkError("repulsor count bound violated: "
                        f"{scan.repulsor_count} * {delta} > diam(K)")
    return scan


# ---------------------------------------------------------------------------
# break accumulation and backward clusters


def _single_linkage(points: Iterable[Fraction], radius: Fraction):
    """Clusters of the sorted points, split where neighbours are more than
    radius apart."""
    pts = sorted(points)
    if not pts:
        return []
    clusters = [[pts[0]]]
    for p in pts[1:]:
        if p - clusters[-1][-1] <= radius:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    return clusters


def _extremes(clusters, hull) -> list:
    """One point per cluster: its end toward the hull extreme nearer the
    cluster's midpoint."""
    center = (hull[0] + hull[1]) / 2
    return [c[-1] if (c[0] + c[-1]) / 2 >= center else c[0] for c in clusters]


def _repulsor_extremes(scan: CellScan, cells, hull) -> list:
    """Cluster representatives of the repulsor-cell endpoints of a scan,
    clustered at three cell widths."""
    pts = [x for v, cell in zip(scan.verdicts, cells) if v == "repulsor"
           for x in cell]
    return _extremes(_single_linkage(pts, 3 * (cells[0][1] - cells[0][0])),
                     hull)


def break_accumulation(t: Trajectory, n: int, radius=Fraction(1, 27)):
    """(Delta_n, clusters): all pullbacks of generator break points through
    forward words up to length n, exactly."""
    radius = rat(radius)
    base = sorted({p for g in t.model.gens for p in break_points(g)})
    acc = set()
    for k in range(n + 1):
        w = forward_word(t, k)
        wi = invert(w)
        for p in base:
            acc.add(apply(wi, p))
    pts = sorted(acc)
    return pts, _single_linkage(pts, radius)


def backward_cluster(model: WalkModel, x, n: int, runs: int,
                     radius=Fraction(1, 81), stream_base: int = 0):
    """Cluster counts of {f-bar^k(x) : n/2 <= k <= n} per run."""
    x, radius = rat(x), rat(radius)
    if n < 2 or runs < 1:
        raise WalkError("need n >= 2 and runs >= 1")
    counts = []
    for r in range(runs):
        t = Trajectory(model, stream=stream_base + r)
        vals = {backward_value(t, x, k) for k in range(n // 2, n + 1)}
        counts.append(len(_single_linkage(vals, radius)))
    return counts, max(counts)


# ---------------------------------------------------------------------------
# proximality


@dataclass(frozen=True)
class ProximalityReport:
    m_estimate: Optional[int]
    cap: int
    samples: int
    failures: tuple


def proximality_degree(model: WalkModel, cap: int = 4, samples: int = 20,
                       horizon: int = 60, delta=DEFAULT_DELTA) -> ProximalityReport:
    """Smallest m <= cap such that every sampled m-tuple of cell endpoints
    contains a synchronized pair; empirical upper bound only."""
    if cap < 2:
        raise WalkError("cap must be at least 2")
    delta = rat(delta)
    cells = measure_cells(model.space, 3 if model.space.ifs else 0)
    endpoints = sorted({v for c in cells for v in c})
    rng = _philox(model.seed, 777)
    failures = []
    for m in range(2, cap + 1):
        all_good = True
        fails = []
        for s in range(samples):
            idx = rng.choice(len(endpoints), size=m, replace=False)
            tup = [endpoints[i] for i in sorted(idx)]
            t = Trajectory(model, stream=10_000 + s)
            good = any(
                classify_pair(t, tup[i], tup[j], delta, horizon) == "synchronized"
                for i in range(m) for j in range(i + 1, m))
            if not good:
                all_good = False
                fails.append(tuple(tup))
        if all_good:
            return ProximalityReport(m, cap, samples, ())
        failures.append((m, tuple(fails[:3])))
    return ProximalityReport(None, cap, samples, tuple(failures))


def delta_sum_statistic(model: WalkModel, points, n: int, runs: int,
                        stream_base: int = 0):
    """Partial sums S = sum_k Delta_m(f-bar^k(tuple)); returns
    (mean, max, last_quarter_mean_increment)."""
    pts = [rat(p) for p in points]
    if len(set(pts)) != len(pts) or len(pts) < 2:
        raise WalkError("tuple must hold at least two distinct points")
    sums = []
    increments = []
    for r in range(runs):
        t = Trajectory(model, stream=stream_base + r)
        partial = []
        s = 0.0
        for k in range(n + 1):
            vals = [backward_value(t, p, k) for p in pts]
            vs = sorted(vals)
            dm = min(float(b - a) for a, b in zip(vs, vs[1:]))
            s += dm
            partial.append(s)
        sums.append(s)
        q = max(1, n // 4)
        increments.append((partial[-1] - partial[-1 - q]) / q)
    return (float(np.mean(sums)), float(np.max(sums)),
            float(np.mean(increments)))


# ---------------------------------------------------------------------------
# global contraction report


@dataclass(frozen=True)
class ContractionReport:
    F: tuple[Fraction, ...]
    p: Optional[int]  # None is the infinity sentinel
    lambda_fit: float
    cover: tuple  # (center, radius) pairs
    sup_slope_off_F: float
    horizon: int
    eps: Fraction
    scan: CellScan  # the cell scan F was drawn from


def global_contraction_report(t: Trajectory, depth: int, n: int, eps,
                              delta=DEFAULT_DELTA,
                              p_cap: int = 8) -> ContractionReport:
    eps = rat(eps)
    K = t.model.space
    scan = contraction_scan(t, depth, n, delta)
    cells = measure_cells(K, depth)
    # F: the repulsor cluster representatives, plus those of the break
    # accumulation clusters not within eps of one already taken
    F = _repulsor_extremes(scan, cells, K.hull)
    _, bclusters = break_accumulation(t, min(n, 12))
    for cand in _extremes(bclusters, K.hull):
        if all(abs(cand - f) > eps for f in F):
            F.append(cand)
    F = sorted(set(F))
    w = forward_word(t, n)
    off = Region.whole(K).difference(epsilon_neighborhood(F, eps, K))
    if len(F) > p_cap or off.is_empty():
        return ContractionReport(tuple(F), None, 0.0, (), 0.0, n, eps, scan)
    img = image(w, off)
    sup_slope = float(slope_range(w, off)[1])
    # cluster the image pieces at scale delta; each cluster must itself be
    # tiny for the walk to count as contracting, and one ball per cluster
    # with radius e^{-n*lam} := max cluster half-diameter covers exactly
    clusters = []
    for p in img.pieces:
        if clusters and p.lo - clusters[-1][1] <= delta:
            clusters[-1][1] = max(clusters[-1][1], p.hi)
        else:
            clusters.append([p.lo, p.hi])
    cdiam = max(b - a for a, b in clusters)
    if cdiam >= delta or len(clusters) > p_cap:
        return ContractionReport(tuple(F), None, 0.0, (), sup_slope, n, eps,
                                 scan)
    radius = max(cdiam / 2, Fraction(1, 3 ** (4 * n)))
    lam = -math.log(float(radius)) / n
    balls = tuple(((a + b) / 2, radius) for a, b in clusters)
    ball_region = Region.from_pieces(K, tuple(
        Piece(c - r, c + r, True, True) for c, r in balls))
    if not img.subset_of(ball_region):
        return ContractionReport(tuple(F), None, lam, (), sup_slope, n, eps,
                                 scan)
    return ContractionReport(tuple(F), len(balls), lam, tuple(balls),
                             sup_slope, n, eps, scan)
