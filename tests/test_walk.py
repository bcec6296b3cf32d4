"""Seeded-walk diagnostics: words, measures, entropy, contraction scans."""

import bisect
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk import walk
from cantorwalk.maps import _push_runs, apply, compose, equals, image, invert
from cantorwalk.rational import affine, as_pair, coprime_fraction, pair_cmp
from cantorwalk.space import measure_cells
from cantorwalk.walk import (TWO64, CellMeasure, Trajectory, WalkError, break_accumulation,
                             contraction_scan, estimate_entropy, estimate_stationary_measure,
                             forward_word, global_contraction_report, invariance_residual,
                             make_model)

from fixtures import (PLAIN_LETTERS, alphabets, cantor_space, diameter, fixture, identity_map,
                      named_generators)
from walk_statistics import (SLOPE_MARGIN, _fit_slope, backward_cluster, backward_value,
                             delta_sum_statistic, dichotomy_report, forward_orbit,
                             pair_verdict)
from reference import contains_ref

K = cantor_space(3)
KLEIN = make_model(K, named_generators(["H", "R"]))
FREE = make_model(K, named_generators(["A1", "A2"], with_inverses=True))
IDENT = make_model(K, {"id": identity_map(K)})
G3_ONLY = make_model(K, {"G3": fixture("G3", K)})
H_ONLY = make_model(K, {"H": fixture("H", K)})


def test_model_validation():
    with pytest.raises(WalkError, match="must align"):
        make_model(K, named_generators(["H", "R"]), probs=[F(1)])
    with pytest.raises(WalkError, match="must be positive"):
        make_model(K, named_generators(["H", "R"]), probs=[F(1), F(0)])
    assert KLEIN.is_symmetric  # H and R are involutions
    assert FREE.is_symmetric
    assert not make_model(K, {"A1": fixture("A1", K)}).is_symmetric


def test_words_trivials():
    t = Trajectory(FREE, stream=0)
    assert forward_word(t, 1) is t.step_map(0)
    # composition order: forward stacks on the left
    assert equals(forward_word(t, 2), compose(t.step_map(1), t.step_map(0)))


def test_cached_words_match_fresh_products():
    # lengths asked out of order and far apart, each against the product of
    # its letters taken one at a time, branch for branch and with its label
    t = Trajectory(FREE, stream=2)
    fws = [identity_map(K)]
    for k in range(90):
        fws.append(compose(t.step_map(k), fws[-1]))
    for n in (5, 2, 8, 1, 8, 40, 12, 41, 3, 90):
        assert forward_word(t, n) == fws[n]


def test_forward_word_matches_pointwise_orbit():
    t = Trajectory(FREE, stream=1)
    n = 6
    w = forward_word(t, n)
    pts = [F(i, 20) for i in range(21) if contains_ref(K, F(i, 20))]
    assert len(pts) >= 4
    for x in pts:
        assert apply(w, x) == forward_orbit(t, x, n)[-1]
    # backward_value agrees with f_omega_0 o ... o f_omega_(n-1)
    bw = identity_map(K)
    for k in range(n):
        bw = compose(bw, t.step_map(k))
    for x in pts:
        assert apply(bw, x) == backward_value(t, x, n)


def _indices(t: Trajectory, n: int) -> list:
    return [t.index(k) for k in range(n)]


def test_trajectory_is_deterministic():
    a = Trajectory(FREE, stream=5)
    b = Trajectory(FREE, stream=5)
    assert _indices(a, 40) == _indices(b, 40)
    c = Trajectory(FREE, stream=6)
    assert _indices(a, 40) != _indices(c, 40)


def test_negative_seeds_key_distinct_streams():
    # -1 and -2 key the stream as 2**64 - 1 and 2**64 - 2; cast through
    # float64 they round to one key, with a RuntimeWarning
    g3 = fixture("G3", K)
    words = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (-1, -2):
            model = make_model(K, {"G3": g3, "G3^-1": invert(g3)},
                               [F(2, 3), F(1, 3)], seed)
            words.append(_indices(Trajectory(model, stream=0), 20))
    assert words[0] != words[1]


def test_stationary_measure_klein():
    mu = estimate_stationary_measure(KLEIN, 20000, 1)
    assert all(type(m) is float for m in mu.masses)
    assert abs(mu.masses[0] - 0.5) < 0.01
    assert abs(mu.masses[1] - 0.5) < 0.01


def test_stationary_measure_identity_is_delta():
    # the four restarts start in the four depth-2 cells, and each stays there
    mu = estimate_stationary_measure(IDENT, 500, 2)
    assert mu.masses == (0.25,) * 4


UNIFORM_1 = CellMeasure(1, (F(1, 2), F(1, 2)))


def test_invariance_residual_oracles():
    avg, per_gen = invariance_residual(UNIFORM_1, KLEIN, {})
    assert (avg, per_gen) == (0, 0)
    # a point mass on the left cell is off by a full unit under the swap
    d1 = CellMeasure(1, (F(1), F(0)))
    avg, per_gen = invariance_residual(d1, H_ONLY, {})
    assert per_gen == 1
    assert avg == 1
    avg, per_gen = invariance_residual(d1, IDENT, {})
    assert (avg, per_gen) == (0, 0)


def test_entropy_oracles():
    assert estimate_entropy(UNIFORM_1, KLEIN, {}) == 0.0
    d1 = CellMeasure(1, (F(1), F(0)))
    assert estimate_entropy(d1, IDENT, {}) == 0.0


@pytest.mark.parametrize("model, shared", [
    (FREE, True),
    (make_model(K, {"G3": fixture("G3", K), "H": fixture("H", K)}, [F(2, 3), F(1, 3)]), False)],
    ids=["free", "g3_h"])
def test_shared_masses_match_unshared(model, shared):
    # one mass dict for the residual and the entropy gives bit for bit what
    # a fresh dict for each gives; on a set closed under inverses the
    # entropy finds every image region's mass already there
    mu = estimate_stationary_measure(model, 2000, 3)
    masses = {}
    residual = invariance_residual(mu, model, masses)
    known = len(masses)
    h = estimate_entropy(mu, model, masses)
    assert (len(masses) == known) == shared
    fresh = (*invariance_residual(mu, model, {}), estimate_entropy(mu, model, {}))
    assert [x.hex() for x in (*residual, h)] == [x.hex() for x in fresh]


def test_entropy_takes_the_cell_images_of_the_residual(monkeypatch):
    # on the free model, closed under inverses, the residual's inverses
    # inverted again have the generators' branches, so the entropy images no
    # cell: 8 cells under 4 letters make 32 images, each made once
    mu = estimate_stationary_measure(FREE, 2000, 3)
    masses, calls = {}, []
    monkeypatch.setattr(walk, "image", lambda f, S: calls.append(S) or image(f, S))
    invariance_residual(mu, FREE, masses)
    made = len(calls)
    estimate_entropy(mu, FREE, masses)
    assert made == len(calls) == 32


def test_dichotomy_free_pairs_mostly_decided():
    pairs = [(F(0), F(1, 9)), (F(0), F(1)), (F(2, 3), F(1)), (F(2, 9), F(8, 9))]
    rep = dichotomy_report(FREE, pairs, n=60)
    assert rep.undecided == 0
    assert rep.synchronized + rep.separated == len(pairs)


def test_classify_pair():
    t = Trajectory(KLEIN, stream=0)
    assert pair_verdict(t, 0, 0, walk.DEFAULT_DELTA, 60)[0] == "synchronized"
    # Klein generators are isometries: distance stays 1 >= delta
    assert pair_verdict(t, 0, 1, walk.DEFAULT_DELTA, 60)[0] == "separated"
    rep = dichotomy_report(KLEIN, [(F(0), F(0)), (F(0), F(1))], n=60)
    assert (rep.synchronized, rep.separated, rep.undecided) == (1, 1, 0)
    assert rep.lambda_fit == 0.0


def test_contraction_scan_oracles():
    # constant cell diameters below delta: no repulsor
    scan = contraction_scan(Trajectory(IDENT, 0), 3, 20)
    assert scan.repulsors == (False,) * 8
    # G3 attracts everything except the fixed repeller at 1
    scan2 = contraction_scan(Trajectory(G3_ONLY, 0), 2, 30)
    assert scan2.repulsors == (False, False, False, True)
    assert scan2.repulsor_count * walk.DEFAULT_DELTA <= diameter(K)


def _tail_verdict_ref(tail, delta, far, near):
    """walk_statistics._tail_verdict on a tail of Fractions."""
    if all(d >= delta for d in tail):
        return far, 0.0
    slope = _fit_slope([math.log(float(d)) if d > 0 else math.log(1e-300) for d in tail])
    if slope < SLOPE_MARGIN and tail[-1] < delta:
        return near, -slope
    return "undecided", 0.0


def _diameter_series_ref(t, depth, n):
    """contraction_scan's series as Fractions: after k letters, the
    greatest image end of a cell's runs less the least."""
    cells = measure_cells(t.model.space, depth)
    steps = [[max(F(*hi) for _, hi, c in runs if c == i)
              - min(F(*lo) for lo, _, c in runs if c == i) for i in range(len(cells))]
             for runs in walk.cell_image_runs(t, [(*c, i) for i, c in enumerate(cells)], n)]
    return tuple(zip(*steps))


@pytest.mark.parametrize("seed", [0, 5, 8])
def test_contraction_scan_matches_fraction_series(seed):
    # the free model at depth 3, at every horizon 4 to 40; these walks put
    # a diameter exactly equal to delta inside some tails, and at the end
    # of decaying ones at seed 0 with n = 11 and 13
    model = make_model(K, named_generators(["A1", "A2"], with_inverses=True), seed=seed)
    at_delta = 0
    for n in range(4, 41):
        scan = contraction_scan(Trajectory(model, 0), 3, n)
        series = _diameter_series_ref(Trajectory(model, 0), 3, n)
        assert tuple(tuple(coprime_fraction(*d) for d in s) for s in scan.diameters) == series
        assert [[a / b for a, b in s] for s in scan.diameters] == [
            list(map(float, s)) for s in series]
        assert scan.repulsors == tuple(all(d >= walk.DEFAULT_DELTA for d in s[n // 2:])
                                       for s in series)
        at_delta += sum(s[n // 2:].count(walk.DEFAULT_DELTA) for s in series)
    assert at_delta


def test_pair_verdicts_match_fraction_distances():
    # the distances of pair_verdict's orbits as Fractions, some pairs
    # synchronizing and some separating, at delta equal to a distance
    pairs = [(F(0), F(1, 9)), (F(0), F(1)), (F(2, 3), F(1)), (F(2, 9), F(8, 9)), (F(1, 3), F(2, 3))]
    for stream, (x, y) in enumerate(pairs):
        for delta in (walk.DEFAULT_DELTA, y - x):
            for n in (4, 20, 60):
                t = Trajectory(FREE, stream)
                dists = [abs(a - b) for a, b in zip(forward_orbit(t, x, n), forward_orbit(t, y, n))]
                assert pair_verdict(t, x, y, delta, n) == _tail_verdict_ref(
                    dists[n // 2:], delta, "separated", "synchronized")


def test_break_accumulation_oracles():
    assert break_accumulation(Trajectory(G3_ONLY, 0), 5) == []  # G3 has no break points
    # H's break points lie more than 1/27 apart
    assert break_accumulation(Trajectory(H_ONLY, 0), 1) == [
        [p, p] for p in ((0, 1), (1, 3), (2, 3), (1, 1))]


def test_backward_cluster_oracles():
    counts, worst = backward_cluster(IDENT, 0, 10, 5, F(1, 81))
    assert worst == 1
    counts2, worst2 = backward_cluster(G3_ONLY, 0, 10, 5, F(1, 81))
    assert worst2 == 1  # 0 is fixed by G3


def test_delta_sum_identity_control():
    mean, peak, inc = delta_sum_statistic(IDENT, [0, 1], 20, 3)
    assert mean == peak == 21.0  # (n+1) * Delta_m with Delta_m = 1
    assert inc == 1.0


def test_global_contraction_g3():
    rep = global_contraction_report(Trajectory(G3_ONLY, 0), 2, 20, F(1, 9))
    assert rep.F == (F(1),)
    assert rep.p == 1
    assert rep.lambda_fit > 0


def test_global_contraction_identity_is_infinite():
    rep = global_contraction_report(Trajectory(IDENT, 0), 2, 20, F(1, 9))
    assert rep.p is None  # infinity sentinel


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(alphabets()), st.integers(0, 9), st.integers(1, 16),
       st.sampled_from([F(1, 27), F(1, 81)]))
def test_contraction_cover_is_the_image_under_the_composed_word(letters, seed, n, eps):
    # global_contraction_report pushes K off F^eps through the letters one
    # image at a time; the region it clusters must be the image under the
    # composed word, piece for piece and flag for flag
    K = letters[0].space
    model = make_model(K, {str(i): g for i, g in enumerate(letters)}, seed=seed)
    t = Trajectory(model, stream=0)
    pushed = []

    def spy(f, S):
        pushed.append((S, image(f, S)))
        return pushed[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk, "image", spy)
        global_contraction_report(t, K.depth, n, eps)
    if pushed:
        assert len(pushed) == n
        assert pushed[-1][1] == image(forward_word(t, n), pushed[0][0])


def test_contraction_report_composes_only_break_accumulation_words(monkeypatch):
    # break_accumulation pulls each break point back through the letters'
    # inverses, inverting each distinct letter once, and the cover pushes
    # its region one letter at a time, so the report composes no word
    calls, inverted = [], []

    def counted(f, g):
        calls.append(len(f.label) + len(g.label))
        return compose(f, g)

    def counted_invert(f):
        inverted.append(f.label)
        return invert(f)

    monkeypatch.setattr(walk, "compose", counted)
    monkeypatch.setattr(walk, "invert", counted_invert)
    rep = global_contraction_report(Trajectory(FREE, stream=0), 3, 40, F(1, 27))
    assert rep.F and calls == []
    assert len(inverted) == len(set(inverted)) <= len(FREE.gens)


def _break_accumulation_ref(t, n):
    """The break points pulled back through the inverse of every forward
    word up to length n."""
    base = sorted({p for g in t.model.gens for p in walk.break_points(g)})
    return sorted(set(base) | {apply(invert(forward_word(t, k)), p)
                               for k in range(1, n + 1) for p in base})


def _single_linkage_ref(points, radius):
    """The hulls [lo, hi] of the clusters of the points, Fractions, split
    where a point lies more than radius past the one before it."""
    clusters = []
    for p in sorted(points):
        if clusters and p - clusters[-1][1] <= radius:
            clusters[-1][1] = p
        else:
            clusters.append([p, p])
    return clusters


@pytest.mark.parametrize("model", [FREE, KLEIN, G3_ONLY, H_ONLY,
                                   make_model(PLAIN_LETTERS[0].space,
                                              {"P": PLAIN_LETTERS[0], "Q": PLAIN_LETTERS[1]})],
                         ids=["free", "klein", "g3", "h", "plain"])
def test_break_accumulation_matches_inverted_words(model, monkeypatch):
    # the points break_accumulation clusters, and its clusters, as Fractions
    spans, linkage = [], walk._single_linkage
    monkeypatch.setattr(walk, "_single_linkage",
                        lambda s, radius: spans.append((s, radius)) or linkage(s, radius))
    for stream in range(3):
        clusters = break_accumulation(Trajectory(model, stream=stream), 12)
        pts = _break_accumulation_ref(Trajectory(model, stream=stream), 12)
        assert spans.pop() == ([(as_pair(p),) * 2 for p in pts], (1, 27))
        assert clusters == [[as_pair(lo), as_pair(hi)]
                            for lo, hi in _single_linkage_ref(pts, F(1, 27))]


# -- the fused Birkhoff chain against the step loop it replaced -------------


def _cell_index_ref(los, his, x):
    i = bisect.bisect_right(los, x) - 1
    if i < 0:
        return 0
    if i + 1 < len(los) and x > his[i] and x > (his[i] + los[i + 1]) / 2:
        return i + 1
    return i


def _branch_dist_ref(b, x):
    return max(0.0, b[0] - x, x - b[1])


def _indices_ref(model, stream, n):
    """The generator indices of a stream, drawn 512 at a time from numpy's
    Philox keyed by (seed, stream) mod 2**64, one bisection per draw."""
    cum, thresholds = F(0), []
    for p in model.probs:
        cum += p
        thresholds.append(int(cum * TWO64))
    rng = np.random.Generator(np.random.Philox(
        key=np.array([model.seed % TWO64, stream % TWO64], dtype=np.uint64)))
    out = []
    while len(out) < n:
        for u in rng.integers(0, TWO64 - 1, size=512,
                              dtype=np.uint64, endpoint=True):
            out.append(bisect.bisect_right(thresholds, int(u)))
    return out[:n]


def _stationary_ref(model, n_steps, depth):
    """The chain stepped one call per cell lookup and branch distance, and
    the number of steps whose x had drifted out of its bisected branch."""
    cells = [(coprime_fraction(*l), coprime_fraction(*r))
             for l, r in measure_cells(model.space, depth)]
    counts, drifts = np.zeros(len(cells)), 0
    gens_f = [[(float(b.lo), float(b.hi), float(b.slope), float(b.offset))
               for b in g.branches] for g in model.gens]
    los, his = [float(l) for l, _ in cells], [float(r) for _, r in cells]
    for r in range(4):
        x, omega = los[r % len(cells)], _indices_ref(model, r, n_steps)
        for k in range(n_steps):
            counts[_cell_index_ref(los, his, x)] += 1
            branches = gens_f[omega[k]]
            j = bisect.bisect_right([b[0] for b in branches], x) - 1
            j = max(0, min(j, len(branches) - 1))
            drifts += _branch_dist_ref(branches[j], x) > 0
            best = j
            if (j + 1 < len(branches) and _branch_dist_ref(branches[j + 1], x)
                    < _branch_dist_ref(branches[j], x)):
                best = j + 1
            lo, hi, s, o = branches[best]
            x = s * min(max(x, lo), hi) + o
    return tuple(float(m) for m in counts / counts.sum()), drifts


CHAIN_MODELS = [
    (KLEIN, 1), (KLEIN, 3), (FREE, 3), (FREE, 5), (G3_ONLY, 2),
    (make_model(K, named_generators(["A1", "A2"], with_inverses=True),
                [F(1, 7), F(2, 7), F(3, 7), F(1, 7)], seed=11), 4),
    (make_model(K, named_generators(["H", "R", "G3"]),
                [F(1, 1000), F(499, 1000), F(1, 2)], seed=3), 3),
    (make_model(PLAIN_LETTERS[0].space, dict(zip("PQ", PLAIN_LETTERS)),
                [F(1, 3), F(2, 3)], seed=5), 0),
]


@pytest.mark.parametrize("model, depth", CHAIN_MODELS)
def test_stationary_chain_matches_step_loop(model, depth):
    drifts = 0
    for n_steps in (1, 700, 1500):
        mu = estimate_stationary_measure(model, n_steps, depth)
        masses, d = _stationary_ref(model, n_steps, depth)
        assert mu.masses == masses
        drifts += d
    if model is KLEIN:
        # the Klein chain drifts off its bisected branch on hundreds of
        # steps, so the nearest-branch test and the clamp are exercised
        assert drifts > 100


@pytest.mark.parametrize("probs", [
    (F(1, 2), F(1, 2)), (F(2, 3), F(1, 3)), (F(1, 3),) * 3,
    (F(1, 2 ** 63), F(2 ** 63 - 1, 2 ** 63)), (F(1, 7), F(2, 7), F(3, 7), F(1, 7)),
    (F(999, 1000), F(1, 2000), F(1, 2000))])
def test_trajectory_indices_match_bisection(probs):
    names = ["A1", "A2", "A1^-1", "A2^-1"][:len(probs)]
    gens = named_generators(["A1", "A2"], with_inverses=True)
    model = make_model(K, {n: gens[n] for n in names}, probs, seed=7)
    for stream in (0, 5):
        t = Trajectory(model, stream)
        assert [t.index(k) for k in range(1100)] == _indices_ref(model, stream, 1100)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 63 + 5])
def test_trajectory_draws_only_what_it_reads(seed):
    # the first draw reaches the index asked for and no further; indices
    # read in mixed order after it, on several streams, are those of one
    # 512-draw chunk
    model = make_model(K, named_generators(["A1", "A2"], with_inverses=True), seed=seed)
    for stream in (0, 3, 10_000):
        t, ref = Trajectory(model, stream), _indices_ref(model, stream, 512)
        assert t.index(6) == ref[6] and len(t._indices) == 7
        assert [t.index(k) for k in (70, 71, 3, 511, 200, 0)] == [
            ref[k] for k in (70, 71, 3, 511, 200, 0)]
        assert t._indices[:512] == ref


def push_runs_ref(g, runs):
    """_push_runs with every image end through rational.affine."""
    bs, order = g.branches, g._image_order
    pieces, j = [[] for _ in bs], 0
    for lo, hi, c in runs:
        (ln, ld), (hn, hd) = lo, hi
        while bs[j][1][0] * ld < ln * bs[j][1][1]:
            j += 1
        for i, (blo, bhi, s, o, ia, ib) in enumerate(bs[j:], j):
            if blo[0] * hd > hn * blo[1]:
                break
            up = s[0] > 0
            ya = affine(s, lo, o) if blo[0] * ld <= ln * blo[1] else (ib, ia)[up]
            yb = affine(s, hi, o) if bhi[0] * hd >= hn * bhi[1] else (ia, ib)[up]
            pieces[i].append((ya, yb, c) if up else (yb, ya, c))
    flat = [p for i in order for p in (pieces[i] if bs[i][2][0] > 0 else reversed(pieces[i]))]
    out = []
    for p in flat:
        if out and out[-1][2] == p[2]:
            p = (out.pop()[0], p[1], p[2])
        out.append(p)
    return out


@pytest.mark.parametrize("k", range(len(alphabets())))
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_push_runs_matches_the_affine_reference(k, data):
    # the cells of a random depth (on a plain set, K's intervals cut into
    # equal parts) pushed through every letter of the alphabet in a random
    # order: each push gives the reference's runs, run for run
    letters = alphabets()[k]
    K = letters[0].space
    if K.ifs is not None:
        cells = measure_cells(K, data.draw(st.integers(0, K.depth + 2)))
    else:
        m = data.draw(st.integers(1, 3))
        cells = [(affine((i, m), r, affine((m - i, m), l)), affine((i + 1, m), r, affine(
            (m - i - 1, m), l))) for l, r in K.ends for i in range(m)]
    runs = [(l, r, i) for i, (l, r) in enumerate(cells)]
    for i in data.draw(st.permutations(range(len(letters)))):
        got, runs = _push_runs(letters[i], runs), push_runs_ref(letters[i], runs)
        assert got == runs


def _one_point_runs_beside_another_cell(runs):
    """The one-point runs whose point lies in a run of another cell."""
    return [p for p in runs if p[0] == p[1] and any(
        q[2] != p[2] and pair_cmp(q[0], p[0]) <= 0 <= pair_cmp(q[1], p[0]) for q in runs)]


def test_pushed_cells_hold_no_one_point_run_beside_another_cell():
    # no cell of measure_cells ends at a point that two branch sources
    # share, so one letter pushes no one-point run of one cell beside a run
    # of another, as invariance_rows relies on
    for letters in alphabets():
        K = letters[0].space
        for depth in range(K.depth + 2) if K.ifs is not None else [0]:
            cells = measure_cells(K, depth)
            for g in letters:
                runs = _push_runs(g, [(l, r, i) for i, (l, r) in enumerate(cells)])
                assert _one_point_runs_beside_another_cell(runs) == [], (g.label, depth)
    # cells ending at 1/2, where P's two sources on [0, 1] meet, do give them
    cells = [((0, 1), (1, 2)), ((1, 2), (1, 1)), ((2, 1), (3, 1)), ((4, 1), (6, 1))]
    runs = _push_runs(PLAIN_LETTERS[0], [(l, r, i) for i, (l, r) in enumerate(cells)])
    assert runs[:4] == [((0, 1), (1, 4), 0), ((1, 4), (1, 4), 1),
                        ((1, 4), (1, 4), 0), ((1, 4), (1, 1), 1)]
    assert _one_point_runs_beside_another_cell(runs) == runs[1:3]
