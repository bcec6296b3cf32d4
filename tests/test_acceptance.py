"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with pytest -s or -v on
failure) and asserts the stated tolerance.  Randomized checks are seeded,
so every run is reproducible.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction as F

from cantorwalk.certify import (AssemblyFailure, _contraction_candidates, find_finite_orbit,
                                find_morse_smale, assemble_free_pair, solve_invariant_measure)
from cantorwalk.cli import parse_scenario, run_scenario, _load_scenario_text
from cantorwalk.giet import blow_up, discontinuity_closure, jump_points
from cantorwalk.maps import apply, break_pairs, break_points, compose, image, invert
from cantorwalk.space import Piece, Region
from cantorwalk.verify import (PingPongCertificate, check_morse_smale, periodic_points,
                               verify_finite_orbit, verify_ping_pong)
from cantorwalk.walk import (CellMeasure, Trajectory, contraction_scan, epsilon_neighborhood,
                             estimate_entropy, estimate_stationary_measure,
                             global_contraction_report, invariance_residual,
                             make_model)

from fixtures import (cantor_space, conjugate_point, cylinder_region, diameter, endpoints,
                      extremes, fixture, giet_value, identity_map, named_generators, region,
                      regular_on, rotation)
from reference import bounded_gaps
from walk_statistics import (backward_cluster, delta_sum_statistic, dichotomy_report,
                             free_group_sanity)

K = cantor_space(3)
A1 = fixture("A1", K)
A2 = fixture("A2", K)
FREE_GENS = named_generators(["A1", "A2"], with_inverses=True)
KLEIN_GENS = named_generators(["H", "R"])
LETTERS = [A1, A2, invert(A1), invert(A2)]


def _report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _random_word(rng, max_len=5):
    w = identity_map(K)
    for _ in range(rng.randint(1, max_len)):
        w = compose(rng.choice(LETTERS), w)
    return w


def _limit_points(rng, count, max_digits=12):
    """Random finite-address points of the middle-thirds limit set."""
    pts = set()
    while len(pts) < count:
        addr = [rng.choice((0, 2)) for _ in range(rng.randint(0, max_digits))]
        pts.add(sum(F(d, 3 ** (i + 1)) for i, d in enumerate(addr)))
    return sorted(pts)


def test_criterion_1_ping_pong_and_sanity():
    t0 = time.monotonic()
    cert = PingPongCertificate(
        A1, A2, cylinder_region(K, "22"), cylinder_region(K, "02"),
        cylinder_region(K, "00"), cylinder_region(K, "20"))
    ok = bool(verify_ping_pong(cert))
    ok = ok and free_group_sanity(A1, A2, 8)
    elapsed = time.monotonic() - t0
    _report(1, f"ping-pong fixture + sanity L=8 in {elapsed:.1f}s",
            ok and elapsed < 10)


def test_criterion_2_break_inclusion():
    t0 = time.monotonic()
    rng = random.Random(2024)
    violations = 0
    for _ in range(1000):
        g = _random_word(rng, 4)
        h = _random_word(rng, 4)
        gi = invert(g)
        allowed = set(break_pairs(g))
        pulled = {apply(gi, p) for p in break_points(h)}
        for bp in break_pairs(compose(h, g)):
            if bp not in allowed and bp.a not in pulled and bp.b not in pulled:
                violations += 1
    elapsed = time.monotonic() - t0
    _report(2, f"break inclusion, 1000 word pairs, {violations} violations, "
               f"{elapsed:.1f}s", violations == 0 and elapsed < 30)


def test_criterion_3_regularity():
    rng = random.Random(3)
    ends = endpoints(K)
    violations = 0
    checked = 0
    while checked < 1000:
        w = _random_word(rng, 4)
        a, b = sorted(rng.sample(ends, 2))
        if not regular_on(w, a, b):
            continue
        checked += 1
        seg = region(K, [(a, b)])
        fa, fb = sorted((apply(w, a), apply(w, b)))
        tgt = region(K, [(fa, fb)])
        img = image(w, seg)
        # exact equality on the limit set: both inclusions plus attained
        # endpoints (the truncated approximation carries non-limit
        # material, so one-sided subset tests are the faithful check)
        if not (img.subset_of(tgt) and image(invert(w), tgt).subset_of(seg)
                and extremes(img) == (fa, fb)):
            violations += 1
    # every interval shorter than r0, the least break-pair span of the
    # generators, contains no generator break pair
    r0 = min(p.b - p.a for g in (A1, A2) for p in break_pairs(g))
    assert r0 == F(1, 27)
    for _ in range(1000):
        lo = rng.choice(ends)
        hi = lo + r0 * F(rng.randrange(1, 27), 27)
        if any(lo <= p.a and p.b <= hi
               for g in (A1, A2) for p in break_pairs(g)):
            violations += 1
    _report(3, f"regular-segment images + radius, {violations} violations",
            violations == 0)


def test_criterion_4_klein_invariant_branch():
    t0 = time.monotonic()
    cert = solve_invariant_measure(KLEIN_GENS, 1, d_max=6)
    ok = bool(cert) and cert.masses == (F(1, 2), F(1, 2))
    ok = ok and cert.consistency_depth == 6
    model = make_model(K, KLEIN_GENS)
    avg, per_gen = invariance_residual(CellMeasure(cert.depth, cert.masses), model, {})
    ok = ok and avg == 0 and per_gen == 0
    orb = find_finite_orbit(KLEIN_GENS, [F(0)], bound=2000)
    ok = ok and list(orb.orbit) == [F(0), F(1, 3), F(2, 3), F(1)]
    ok = ok and bool(verify_finite_orbit(orb))
    res = assemble_free_pair(model, F(1, 27), max_len=6, runs=100, n_max=40)
    ok = ok and isinstance(res, AssemblyFailure) and res.flag == "finite-orbit"
    elapsed = time.monotonic() - t0
    _report(4, f"Klein measure (1/2,1/2), orbit, finite-orbit flag, "
               f"{elapsed:.1f}s", ok and elapsed < 5)


def test_criterion_5_free_mutual_exclusion():
    t0 = time.monotonic()
    infeas = solve_invariant_measure(named_generators(["A1", "A2"]), 3, d_max=6)
    ok = not infeas and infeas.gap > 0
    verified = 0
    for seed in range(50):
        model = make_model(K, FREE_GENS, seed=seed)
        cert = assemble_free_pair(model, F(1, 27), max_len=6, runs=100, n_max=40)
        if cert and verify_ping_pong(cert):
            verified += 1
    elapsed = time.monotonic() - t0
    _report(5, f"free infeasible + {verified}/50 seeds certified, "
               f"{elapsed:.0f}s", ok and verified >= 45 and elapsed < 300)


def test_criterion_6_deterministic_contraction():
    K5 = cantor_space(5)
    model = make_model(K5, {"A1": fixture("A1", K5)})
    eps = F(1, 27)
    res = next(_contraction_candidates(model, eps, 40, 20), None)
    ok = res is not None
    if ok:
        _, _, w, A, B = res
        k = len(w.label)
        ok = set(w.label) == {"A1"} and k <= 8
        ok = ok and list(A) == [F(1)] and list(B) == [F(1, 4)]
        # re-verify the inclusion from scratch at depth 5
        off = Region.whole(K5).difference(
            epsilon_neighborhood(A, eps, K5))
        ok = ok and image(w, off).subset_of(
            epsilon_neighborhood(B, eps, K5))
    _report(6, "first contraction candidate of {A1} = (A1^k, {1}, {1/4}), k <= 8", ok)


def test_criterion_7_global_contraction():
    t0 = time.monotonic()
    successes = 0
    for seed in range(100):
        model = make_model(K, FREE_GENS, seed=seed)
        t = Trajectory(model, stream=0)
        scan = contraction_scan(t, 3, 40)
        assert scan.repulsor_count * F(1, 9) <= diameter(K)
        rep = global_contraction_report(t, 3, 40, F(1, 27))
        if rep.p is not None and rep.p <= 4 and rep.lambda_fit > 0.05:
            successes += 1
    elapsed = time.monotonic() - t0
    _report(7, f"global contraction {successes}/100 seeds, {elapsed:.0f}s",
            successes >= 90)


def test_criterion_8_dichotomy():
    rng = random.Random(8)
    ends = endpoints(K)
    pairs = []
    while len(pairs) < 500:
        x, y = rng.sample(ends, 2)
        pairs.append((x, y))
    model = make_model(K, FREE_GENS)
    rep = dichotomy_report(model, pairs, n=60)
    undecided_frac = rep.undecided / 500
    _report(8, f"dichotomy: {rep.undecided}/500 undecided "
               f"({100 * undecided_frac:.1f}%)", undecided_frac <= 0.05)


def test_criterion_9_backward_accumulation():
    ones = 0
    for seed in range(200):
        model = make_model(K, FREE_GENS, seed=seed)
        counts, _ = backward_cluster(model, 0, 30, 1, F(1, 81))
        ones += counts[0] == 1
    model = make_model(K, FREE_GENS)
    _, _, inc = delta_sum_statistic(model, [0, 1], 60, 100)
    ident = make_model(K, {"id": identity_map(K)})
    _, _, inc_id = delta_sum_statistic(ident, [0, 1], 60, 4)
    _report(9, f"backward cluster {ones}/200 single, increment {inc:.2e}, "
               f"control {inc_id:.3f}",
            ones >= 190 and inc < 0.01 and abs(inc_id - 1.0) <= 0.001)


def test_criterion_10_entropy():
    klein = make_model(K, KLEIN_GENS)
    uniform = CellMeasure(1, (F(1, 2), F(1, 2)))
    h_klein = estimate_entropy(uniform, klein, {})
    ok = h_klein == 0.0
    h_free = None
    for seed in range(3):
        model = make_model(K, FREE_GENS, seed=seed)
        mu = estimate_stationary_measure(model, 10000, 2)
        h = estimate_entropy(mu, model, {})
        ok = ok and h >= -1e-9  # Jensen lower bound, every run
        h_free = h
    ok = ok and h_free > 0
    _report(10, f"entropy: Klein 0 exactly, free {h_free:.3f} > 0", ok)


def _brute_periodic(f, max_period):
    """Independent itinerary oracle: try every branch sequence, solve the
    composed affine fixed-point equation, keep in-domain hyperbolic hits."""
    found = {}
    for p in range(1, max_period + 1):
        for seq in itertools.product(f.branches, repeat=p):
            s, t = F(1), F(0)
            for b in seq:
                s, t = b.slope * s, b.slope * t + b.offset
            if s == 1:
                continue
            x = t / (1 - s)
            y, good = x, True
            for b in seq:
                if not (b.lo <= y <= b.hi and f.space.contains_limit_point(y)):
                    good = False
                    break
                y = b.slope * y + b.offset
            if good and x not in found:
                found[x] = (p, s)
    return {(x, p, m) for x, (p, m) in found.items()}


def test_criterion_11_morse_smale():
    rep = periodic_points(A1, 6)
    expected = ((F(1, 4), 1, F(1, 9)), (F(1), 1, F(9)))
    ok = rep.points == expected and rep.families == ()
    ok = ok and _brute_periodic(A1, 6) == set(expected)
    A = Region.from_pieces(K, (Piece(F(8, 9), F(1), False, True),))
    B = epsilon_neighborhood([F(0), F(1, 3)], F(1, 27), K).union(
        region(K, [(0, F(1, 3))]))
    cert = check_morse_smale(A1, A, B)
    ok = ok and bool(cert)
    # orbit simulation: forward and backward starts reach the periodic set
    rng = random.Random(11)
    tol = F(1, 3 ** 6)
    targets = [x for x, _, _ in expected]
    converged = 0
    for x in _limit_points(rng, 250):
        for g in (A1, invert(A1)):
            y = x
            for _ in range(200):
                if any(abs(y - t) < tol for t in targets):
                    break
                y = apply(g, y)
            converged += any(abs(y - t) < tol for t in targets)
    ok = ok and converged == 500
    found = 0
    for seed in range(50):
        model = make_model(K, FREE_GENS, seed=seed)
        if find_morse_smale(model, F(1, 27), n_max=40, runs=20):
            found += 1
    _report(11, f"periodic oracle exact, {converged}/500 orbits converge, "
                f"search {found}/50 seeds", ok and found >= 45)


def test_criterion_12_giet_blowup():
    rot = rotation(F(1, 3))
    D, closed = discontinuity_closure([rot], [invert(rot)], 3)
    ok = closed and sorted(D) == [F(0), F(1, 3), F(2, 3)]
    res = blow_up([rot], 3, F(1, 4))
    ok = ok and res.exact
    g = res.induced[0]
    rng = random.Random(12)
    for _ in range(500):
        x = F(rng.randrange(0, 3 ** 7), 3 ** 7)
        if apply(g, conjugate_point(res, x)) != conjugate_point(res, giet_value(rot, x)):
            ok = False
            break
    # break points sit exactly at the gap extremities blown from the
    # genuine jump points (gaps blown at continuity preimages map
    # gap-to-gap, so they produce no break pair)
    extremities = {v for gp in bounded_gaps(res.space) for v in gp}
    jump_ext = set()
    for c in jump_points(rot):
        fc = conjugate_point(res, c)
        gap = next(gp for gp in bounded_gaps(res.space) if gp[1] == fc)
        jump_ext.update(gap)
    bpts = set(break_points(g))
    ok = ok and bpts == jump_ext and bpts <= extremities
    # every orbit of a cell endpoint is finite of size 3
    for start in endpoints(res.space):
        orb = find_finite_orbit({"g": g}, [start], bound=10)
        if orb is None or len(orb.orbit) != 3 or not verify_finite_orbit(orb):
            ok = False
            break
    _report(12, "rotation-by-1/3 blow-up: closure, conjugacy, breaks, "
                "3-point orbits", ok)


def test_criterion_13_determinism_and_law_equality(tmp_path):
    scn = parse_scenario(_load_scenario_text("klein_four"))
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        run_scenario(scn, str(d), False)
    same = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("klein_four_report.json", "klein_four_certificate.json"))

    # exhaustive length-6 law equality: forward and backward compositions
    # have identical multisets (word reversal is a bijection)
    def canonical(w):
        merged = []
        for b in w.branches:
            if merged and merged[-1][1] == b.lo and \
                    merged[-1][2:] == (b.slope, b.offset):
                merged[-1] = (merged[-1][0], b.hi, b.slope, b.offset)
            else:
                merged.append((b.lo, b.hi, b.slope, b.offset))
        return tuple(merged)

    fwd = [identity_map(K)]
    bwd = [identity_map(K)]
    for _ in range(6):
        fwd = [compose(g, w) for w in fwd for g in LETTERS]
        bwd = [compose(w, g) for w in bwd for g in LETTERS]
    equal = Counter(map(canonical, fwd)) == Counter(map(canonical, bwd))
    _report(13, "byte-identical reports + exact n=6 law equality",
            same and equal)
