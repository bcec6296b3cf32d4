"""Seeded-walk diagnostics: words, measures, entropy, contraction scans."""

import warnings
from fractions import Fraction as F

import pytest

from cantorwalk.fixtures import cantor_space, fixture, named_generators
from cantorwalk.maps import (apply, compose, equals, identity_map, invert,
                             is_identity)
from cantorwalk.walk import (CellMeasure, Trajectory, WalkError,
                             backward_cluster, backward_value,
                             break_accumulation, classify_pair,
                             contraction_scan, delta_sum_statistic,
                             dichotomy_report, estimate_entropy,
                             estimate_stationary_measure, forward_orbit,
                             forward_word, backward_word,
                             global_contraction_report, invariance_residual,
                             make_model, measure_cells, proximality_degree,
                             uniform_cell_measure)

K = cantor_space(3)
KLEIN = make_model(K, named_generators(["H", "R"]))
FREE = make_model(K, named_generators(["A1", "A2"], with_inverses=True))
IDENT = make_model(K, {"id": identity_map(K)})
G3_ONLY = make_model(K, {"G3": fixture("G3", K)})
H_ONLY = make_model(K, {"H": fixture("H", K)})


def test_model_validation():
    with pytest.raises(WalkError):
        make_model(K, named_generators(["H", "R"]), probs=[F(1, 2), F(1, 3)])
    with pytest.raises(WalkError):
        make_model(K, named_generators(["H", "R"]), probs=[F(1), F(0)])
    assert KLEIN.is_symmetric  # H and R are involutions
    assert FREE.is_symmetric
    assert not make_model(K, {"A1": fixture("A1", K)}).is_symmetric


def test_words_trivials():
    t = Trajectory(FREE, stream=0)
    assert is_identity(forward_word(t, 0))
    assert is_identity(backward_word(t, 0))
    # composition order: forward stacks on the left, backward on the right
    assert equals(forward_word(t, 2), compose(t.step_map(1), t.step_map(0)))
    assert equals(backward_word(t, 2), compose(t.step_map(0), t.step_map(1)))


def test_forward_word_matches_pointwise_orbit():
    t = Trajectory(FREE, stream=1)
    n = 6
    w = forward_word(t, n)
    pts = [F(i, 20) for i in range(21) if K.contains(F(i, 20))]
    assert len(pts) >= 4
    for x in pts:
        assert apply(w, x) == forward_orbit(t, x, n)[-1]
    # backward_value agrees with the backward word
    bw = backward_word(t, n)
    for x in pts:
        assert apply(bw, x) == backward_value(t, x, n)


def test_trajectory_is_deterministic():
    a = Trajectory(FREE, stream=5)
    b = Trajectory(FREE, stream=5)
    assert a.word(40) == b.word(40)
    c = Trajectory(FREE, stream=6)
    assert a.word(40) != c.word(40)


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
            words.append(Trajectory(model, stream=0).word(20))
    assert words[0] != words[1]


def test_stationary_measure_klein():
    mu = estimate_stationary_measure(KLEIN, 20000, 1)
    assert not mu.exact
    assert abs(mu.masses[0] - 0.5) < 0.01
    assert abs(mu.masses[1] - 0.5) < 0.01


def test_stationary_measure_identity_is_delta():
    mu = estimate_stationary_measure(IDENT, 500, 1, restarts=1)
    assert mu.masses[0] == 1.0


def test_invariance_residual_oracles():
    u1 = uniform_cell_measure(K, 1)
    avg, per_gen, skipped = invariance_residual(u1, KLEIN)
    assert (avg, per_gen, skipped) == (0, 0, 0)
    # a point mass on the left cell is off by a full unit under the swap
    d1 = CellMeasure(1, (F(1), F(0)), True)
    avg, per_gen, _ = invariance_residual(d1, H_ONLY)
    assert per_gen == 1
    assert avg == 1
    avg, per_gen, _ = invariance_residual(d1, IDENT)
    assert (avg, per_gen) == (0, 0)


def test_entropy_oracles():
    u1 = uniform_cell_measure(K, 1)
    ent = estimate_entropy(u1, KLEIN)
    assert ent.h_estimate == 0.0
    assert ent.per_generator == (0.0, 0.0)
    d1 = CellMeasure(1, (F(1), F(0)), True)
    assert estimate_entropy(d1, IDENT).h_estimate == 0.0


def test_classify_pair():
    t = Trajectory(KLEIN, stream=0)
    assert classify_pair(t, 0, 0) == "synchronized"
    # Klein generators are isometries: distance stays 1 >= delta
    assert classify_pair(t, 0, 1) == "separated"


def test_dichotomy_free_pairs_mostly_decided():
    pairs = [(F(0), F(1, 9)), (F(0), F(1)), (F(2, 3), F(1)), (F(2, 9), F(8, 9))]
    rep = dichotomy_report(FREE, pairs, n=60)
    assert rep.undecided == 0
    assert rep.synchronized + rep.separated == len(pairs)


def test_contraction_scan_oracles():
    # constant cell diameters below delta: everything is undecided
    scan = contraction_scan(Trajectory(IDENT, 0), 3, 20)
    assert set(scan.verdicts) == {"undecided"}
    # G3 attracts everything except the fixed repeller at 1
    scan2 = contraction_scan(Trajectory(G3_ONLY, 0), 2, 30)
    assert scan2.verdicts == ("attractor", "attractor", "attractor", "repulsor")
    assert scan2.repulsor_count * scan2.delta <= K.diameter


def test_break_accumulation_oracles():
    t = Trajectory(G3_ONLY, 0)
    pts, clusters = break_accumulation(t, 5)
    assert pts == []  # G3 has no break points
    th = Trajectory(H_ONLY, 0)
    pts2, _ = break_accumulation(th, 1)
    assert pts2 == [F(0), F(1, 3), F(2, 3), F(1)]


def test_backward_cluster_oracles():
    counts, worst = backward_cluster(IDENT, 0, 10, 5)
    assert worst == 1
    counts2, worst2 = backward_cluster(G3_ONLY, 0, 10, 5)
    assert worst2 == 1  # 0 is fixed by G3


def test_delta_sum_identity_control():
    mean, peak, inc = delta_sum_statistic(IDENT, [0, 1], 20, 3)
    assert mean == peak == 21.0  # (n+1) * Delta_m with Delta_m = 1
    assert inc == 1.0


def test_proximality_klein_has_no_proximal_pair():
    rep = proximality_degree(KLEIN, cap=2, samples=6, horizon=30)
    assert rep.m_estimate is None
    assert rep.failures


def test_global_contraction_g3():
    rep = global_contraction_report(Trajectory(G3_ONLY, 0), 2, 20, F(1, 9))
    assert rep.F == (F(1),)
    assert rep.p == 1
    assert rep.lambda_fit > 0
    assert len(rep.cover) == 1


def test_global_contraction_identity_is_infinite():
    rep = global_contraction_report(Trajectory(IDENT, 0), 2, 20, F(1, 9))
    assert rep.p is None  # infinity sentinel
