"""The certify-free search against the exhaustive search it replaced.

certify._contraction_candidates takes a stream's repulsor cells by dropping
each cell at its first image diameter below DEFAULT_DELTA over the tail of
the horizon, and stops pushing the cells' images once no cell is left.  A
dropped cell stays dropped, so its runs ride on under one separator tag,
merged with neighbouring separator runs across the gaps of K between them;
the kept cells' runs are unchanged.  certify._first_inclusion pushes a
tiling of K's hull, the pieces of K off A^eps tagged 1 and the gaps
between them 0, through each sample's letters, tests the tag-1 runs
against B^eps at each length, and composes only the word it returns, or
one whose runs the quick tests leave open.  As eps shrinks, K off A^eps
grows and B^eps shrinks, so a word that fails at eps fails at eps/3: each
shrink resumes at the word the last one returned, and the loop stops at
the first shrink that finds none.  The references below are the search as
it was: the repulsors read off the full walk.contraction_scan series, and
every word composed and tested with maps_into, every shrink restarted at
the first sample.  Both must give the same candidates, the same
certificates and the same failures, and each pushed verdict must be
maps_into's verdict on the composed word.  The repulsor screen compares
each cell's image diameter with DEFAULT_DELTA by cross-multiplication; its
reference reduces every cell's diameter through walk.run_diameters and
pushes every cell to the horizon, as the screen did before.
"""

from collections import Counter
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk import certify, maps, verify, walk
from cantorwalk.certify import (MAX_POINTS, _contraction_candidates, _first_inclusion,
                                assemble_free_pair)
from cantorwalk.cli import _load_scenario_text, parse_scenario
from cantorwalk.maps import apply, image, maps_into
from cantorwalk.rational import as_pair, coprime_fraction, pair_cmp, pair_key
from cantorwalk.serialize import certificate_to_obj, dumps
from cantorwalk.space import Piece, Region, measure_cells
from cantorwalk.verify import _fixed_points
from cantorwalk.walk import (DEFAULT_DELTA, Trajectory, WalkError, _repulsor_extremes,
                             cell_image_runs, contraction_scan, epsilon_neighborhood,
                             forward_word, make_model, run_diameters)

from fixtures import cantor_space, letter_words, named_generators, regions
from reference import contains_ref, in_region


def _first_word(t, A, eps, n_max):
    """The candidate (t, n, word, A, B) of the trajectory t for the points A,
    the first n with image(word, K off A^eps) inside B^eps, or None."""
    K = t.model.space
    off = Region.whole(K).difference(epsilon_neighborhood(A, eps, K))
    if off.is_empty():
        return None
    for n in range(1, n_max + 1):
        w = forward_word(t, n)
        B = [coprime_fraction(*x) for x in sorted(
            {x for x, (sn, sd) in _fixed_points(w)[0] if abs(sn) < sd}, key=pair_key)]
        if not B or len(B) > MAX_POINTS:
            continue
        b_reg = epsilon_neighborhood(B, eps, K)
        if maps_into(w, off, b_reg):
            return t, n, w, A, B
    return None


def contraction_candidates_ref(model, eps, n_max, streams):
    """The candidate search with A from the full contraction_scan."""
    K = model.space
    cells = measure_cells(K, K.depth)
    for r in range(streams):
        t = Trajectory(model, stream=r)
        try:
            scan = contraction_scan(t, K.depth, min(n_max, 24))
        except WalkError:
            continue
        A = _repulsor_extremes([c for rep, c in zip(scan.repulsors, cells) if rep],
                               cells, K.hull)
        if A and len(A) <= MAX_POINTS and (found := _first_word(t, A, eps, n_max)):
            yield found


def contraction_candidates_screen_ref(model, eps, n_max, streams):
    """The candidate search with the repulsor screen on run_diameters."""
    K = model.space
    cells = measure_cells(K, K.depth)
    h, delta = min(n_max, 24), as_pair(DEFAULT_DELTA)
    for r in range(streams):
        t = Trajectory(model, stream=r)
        keep = range(len(cells))
        for runs in islice(cell_image_runs(t, [(*c, i) for i, c in enumerate(cells)], h),
                           h // 2, None):
            diams = run_diameters(runs, len(cells))
            keep = [i for i in keep if pair_cmp(diams[i], delta) >= 0]
            if not keep:
                break
        live = [cells[i] for i in keep]
        A = _repulsor_extremes(live, cells, K.hull)
        if not A or len(A) > MAX_POINTS or len(live) * DEFAULT_DELTA > K.hull[1] - K.hull[0]:
            continue
        if found := _first_word(t, A, eps, n_max):
            yield found


def first_inclusion_ref(usable, off, b_reg, n_max):
    """The unscreened shrink loop: every word composed and tested, and every
    shrink restarted at the first sample."""
    for t, n in usable:
        for n2 in range(n, n_max + 1):
            w2 = forward_word(t, n2)
            if maps_into(w2, off, b_reg):
                return w2, usable
    return None


def _bundled_model(name, seed):
    s = parse_scenario(_load_scenario_text(name))
    return make_model(s.space, s.generators, s.probabilities, seed)


def _free_model(depth, seed):
    K = cantor_space(depth)
    return make_model(K, named_generators(["A1", "A2"], K, with_inverses=True),
                      seed=seed)


MODELS = ([pytest.param(depth, seed, id=f"free-d{depth}-w{seed}")
           for depth in (3, 4) for seed in range(10)] +
          [pytest.param(name, seed, id=f"{name}-w{seed}")
           for name in ("g3", "identity", "klein_four") for seed in (0, 1)])


def _model(which, seed):
    return _free_model(which, seed) if isinstance(which, int) else _bundled_model(which, seed)


def _candidates(search, model, streams=16, n_max=40):
    return [(t.stream, n, w.branches, tuple(A), tuple(B))
            for t, n, w, A, B in search(model, F(1, 27), n_max, streams)]


@pytest.mark.parametrize("which, seed", MODELS)
def test_candidates_match_full_scan(which, seed):
    model = _model(which, seed)
    assert _candidates(_contraction_candidates, model) == \
        _candidates(contraction_candidates_ref, model)


@pytest.mark.parametrize("which, seed", MODELS)
def test_free_pair_matches_unscreened_search(monkeypatch, which, seed):
    def assemble():
        res = assemble_free_pair(_model(which, seed), F(1, 27), max_len=6, runs=100, n_max=40)
        return dumps(certificate_to_obj(res)) if res else res

    got = assemble()
    monkeypatch.setattr(certify, "_contraction_candidates", contraction_candidates_ref)
    monkeypatch.setattr(certify, "_first_inclusion", first_inclusion_ref)
    assert got == assemble()


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 5, 8])
def test_candidates_match_the_run_diameter_screen(depth, seed):
    # streams 0 to 3 of the free model: the same n, A, B and word branches.
    # At depth 3, stream 3 of walk seed 5 and stream 0 of walk seed 8 keep
    # a cell whose image diameter is exactly DEFAULT_DELTA, which the
    # screen must keep
    model = _free_model(depth, seed)
    assert _candidates(_contraction_candidates, model, 4) == \
        _candidates(contraction_candidates_screen_ref, model, 4)


@pytest.mark.parametrize("names", [["G3"], ["A1", "G3", "R"]], ids="-".join)
@pytest.mark.parametrize("inverses", [False, True], ids=["", "inv"])
@pytest.mark.parametrize("n_max", [7, 10, 40])
@pytest.mark.parametrize("seed", [0, 1, 5, 8])
def test_candidates_match_the_run_diameter_screen_on_more_models(names, inverses, n_max,
                                                                  seed):
    # depth 5: the merged runs of dropped cells against the scan that pushes
    # every cell to the horizon h = min(n_max, 24), on models whose cells
    # drop at other steps
    K = cantor_space(5)
    model = make_model(K, named_generators(names, K, with_inverses=inverses), seed=seed)
    assert _candidates(_contraction_candidates, model, 4, n_max) == \
        _candidates(contraction_candidates_screen_ref, model, 4, n_max)


@settings(max_examples=80, deadline=None)
@given(letter_words(max_size=6), st.data())
def test_screen_never_rejects_an_inclusion(word, data):
    # maps_into against pointwise values: for any point x of S and K,
    # image(w, S) inside T puts w(x) in T.  Written for the one-point screen
    # that the ping-pong shrink loop has since dropped, it still pins the
    # inclusion test that certificates and the candidate search use
    _, w = word
    K = w.space
    lo, hi = K.hull
    eps = (hi - lo) / data.draw(st.sampled_from([9, 27, 81]))
    ends = sorted({x for c in K.intervals for x in c})
    A = data.draw(st.lists(st.sampled_from(ends), min_size=1, max_size=3))
    S = data.draw(st.sampled_from([
        Region.whole(K).difference(epsilon_neighborhood(A, eps, K)),
        data.draw(regions(K))]))
    attracting = [coprime_fraction(*x) for x, (n, d) in _fixed_points(w)[0]
                  if abs(n) < d] or A
    T = data.draw(st.sampled_from([
        epsilon_neighborhood(attracting, eps, K),
        image(w, S),
        image(w, S).union(data.draw(regions(K))),
        image(w, S).difference(data.draw(regions(K)))]))
    if maps_into(w, S, T):
        assert all(in_region(T, apply(w, x)) for x in ends if in_region(S, x))


def test_search_composes_and_tests_fewer_words(monkeypatch):
    # free model at depth 3, walk seed 0: the full scan and the unscreened
    # loop made 65 maps_into and 138 compose calls, the early-exit scan
    # and the point screen 35 and 124, and with the scan composing no word
    # 35 and 60; the pushed tiling composes only the word it returns, 28
    # and 29
    counts = Counter()
    for name in ("maps_into", "compose"):
        for mod in (maps, walk, certify, verify):
            if hasattr(mod, name):
                fn = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *a, name=name, fn=fn:
                                    counts.update([name]) or fn(*a))
    assert assemble_free_pair(_free_model(3, 0), F(1, 27), max_len=6, runs=100, n_max=40)
    assert counts["maps_into"] <= 30
    assert counts["compose"] <= 32


def _shrinks(model, eps=F(1, 27)):
    """The usable samples (t, n) of assemble_free_pair on the model, and
    (K off A^e, B^e) for e = eps, eps/3, eps/9 and eps/27."""
    K = model.space
    samples = list(islice(_contraction_candidates(model, eps, 40, 16), 4))
    usable = [s for s in samples if (len(s[3]), len(s[4])) == tuple(map(len, samples[0][3:]))]
    A, B = usable[-1][3:]
    return [s[:2] for s in usable], [
        (Region.whole(K).difference(epsilon_neighborhood(A, eps / 3 ** k, K)),
         epsilon_neighborhood(B, eps / 3 ** k, K)) for k in range(4)]


FREE_MODELS = [pytest.param(depth, seed, id=f"free-d{depth}-w{seed}")
               for depth in (3, 4) for seed in range(10)]


@pytest.mark.parametrize("depth, seed", FREE_MODELS)
def test_a_failed_inclusion_fails_at_every_smaller_eps(depth, seed):
    # every (sample, n2) pair whose word fails the inclusion at eps fails it
    # at eps/3, eps/9 and eps/27, so the shrink loop may resume at the word
    # it last returned and stop at the first shrink that finds none
    usable, shrinks = _shrinks(_free_model(depth, seed))
    for t, n in usable:
        for n2 in range(n, 41):
            w = forward_word(t, n2)
            held = [maps_into(w, off, b_reg) for off, b_reg in shrinks]
            assert held == sorted(held, reverse=True)


@pytest.mark.parametrize("depth, seed", FREE_MODELS)
def test_each_shrink_resumes_at_the_word_the_last_one_returned(depth, seed):
    # at each eps, the word of the search resumed where the last shrink
    # returned is the word of the search restarted at the first sample
    usable, shrinks = _shrinks(_free_model(depth, seed))
    todo = usable
    for off, b_reg in shrinks:
        found = _first_inclusion(todo, off, b_reg, 40)
        want = first_inclusion_ref(usable, off, b_reg, 40)
        assert (found and found[0]) is (want and want[0])
        todo = found[1] if found else todo


def test_search_pushes_fewer_runs(monkeypatch):
    # free model at depth 3: _push_runs calls and the runs they take.  The
    # scan that pushed dropped cells to the horizon and the shrink loop that
    # restarted each shrink at the first sample made 709 calls on 2,770 runs
    # at walk seed 5 (four shrinks, then a failure at stage verify) and 166
    # on 1,151 at walk seed 0 (one shrink)
    counts = Counter()
    push = walk._push_runs
    monkeypatch.setattr(walk, "_push_runs", lambda g, runs: counts.update(
        calls=1, runs=len(runs)) or push(g, runs))
    res = assemble_free_pair(_free_model(3, 5), F(1, 27), max_len=6, runs=100, n_max=40)
    assert not res and res.stage == "verify"
    assert counts == {"calls": 269, "runs": 1122}
    counts.clear()
    assert assemble_free_pair(_free_model(3, 0), F(1, 27), max_len=6, runs=100, n_max=40)
    assert counts == {"calls": 166, "runs": 851}


EPS = [F(1, 9), F(1, 27), F(1, 81), F(1, 20), F(2, 45)]


def _grid(K):
    """The ends, midpoints and thirds of K's intervals."""
    return sorted({l + (r - l) * k / 6 for l, r in K.intervals for k in (0, 2, 3, 4, 6)})


def _verdicts(t, off, b_reg, n_max=30):
    """For n = 1..n_max, whether _first_inclusion returns a word for the one
    sample (t, n), and whether the composed word maps off into b_reg."""
    return [(_first_inclusion([(t, n)], off, b_reg, n) is not None,
             maps_into(forward_word(t, n), off, b_reg)) for n in range(1, n_max + 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 9), st.integers(0, 15), st.data())
def test_pushed_verdicts_match_the_composed_words(depth, seed, stream, data):
    model = _free_model(depth, seed)
    K, grid = model.space, _grid(model.space)
    A = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3))
    B = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4))
    eps = data.draw(st.sampled_from(EPS))
    off = Region.whole(K).difference(epsilon_neighborhood(A, eps, K))
    pushed, composed = zip(*_verdicts(Trajectory(model, stream=stream), off,
                                      epsilon_neighborhood(B, eps, K)))
    assert pushed == composed


def test_a_one_point_piece_of_off_is_pushed(monkeypatch):
    # A = {0, 2/9} at eps = 1/9 leaves off = {1/9} and [1/3, 1], so the
    # tiling carries the one-point run [1/9, 1/9] tagged 1; over streams 0
    # to 9 and B each end of K's intervals, the push settles all 4,800
    # verdicts without composing a word for maps_into, and 605 hold
    model = _free_model(3, 0)
    K = model.space
    off = Region.whole(K).difference(epsilon_neighborhood([0, F(2, 9)], F(1, 9), K))
    assert off.pieces[0] == ((1, 9), (1, 9), True, True)
    settled = Counter()
    monkeypatch.setattr(certify, "maps_into",
                        lambda *a: settled.update(["open"]) or maps_into(*a))
    for stream in range(10):
        t = Trajectory(model, stream=stream)
        for x in sorted({x for c in K.intervals for x in c}):
            for pushed, composed in _verdicts(t, off, epsilon_neighborhood([x], F(1, 9), K)):
                assert pushed == composed
                settled[pushed] += 1
    assert settled == {False: 4195, True: 605}


def test_a_run_that_the_quick_tests_leave_open_is_settled_by_the_word():
    # two letters A1 of stream 0 map off = K off (2/27)^(1/81) onto a run
    # [0, 1625/6561] that spans (19/81, 20/81): a gap of K's limit set
    # between two branch images of the first letter, carried by the second
    # into K's interval [2/9, 7/27].  The word's image skips it, so with
    # b_reg that image the run's sweep on K finds a point outside, while
    # maps_into holds and _first_inclusion returns the word.  With the
    # image's point 1621/6561 taken out of b_reg, the run is still left
    # open, and the word is rejected
    model = _free_model(3, 0)
    K, t = model.space, Trajectory(model, stream=0)
    off = Region.whole(K).difference(epsilon_neighborhood([F(2, 27)], F(1, 81), K))
    w = forward_word(t, 2)
    b_reg = image(w, off)
    tiling = [((0, 1), (5, 81), 1), ((5, 81), (7, 81), 0), ((7, 81), (1, 1), 1)]
    runs = list(cell_image_runs(t, tiling, 2))[2]
    assert ((0, 1), (1625, 6561), 1) in runs
    run = Piece._make(((0, 1), (1625, 6561), True, True))
    assert b_reg._covers(run, False) is None and not b_reg._covers(run)
    assert not in_region(b_reg, F(39, 162)) and contains_ref(K, F(39, 162))
    assert maps_into(w, off, b_reg)
    assert _first_inclusion([(t, 2)], off, b_reg, 2)[0] is w
    hole = b_reg.difference(epsilon_neighborhood([F(1621, 6561)], F(1, 59049), K))
    assert hole._covers(run, False) is None and not maps_into(w, off, hole)
    assert _first_inclusion([(t, 2)], off, hole, 2) is None


def test_cell_scans_compose_no_word(monkeypatch):
    # contraction_scan and the repulsor scan of _contraction_candidates push
    # the cells' images letter by letter; stream 0 of the free model at
    # depth 3 keeps a cell past step 12 and is then rejected, with no A
    def compose(*args):
        raise AssertionError("compose called")

    for mod in (maps, walk, certify, verify):
        monkeypatch.setattr(mod, "compose", compose)
    model = _free_model(3, 0)
    scan = contraction_scan(Trajectory(model, stream=1), 3, 40)
    assert scan.repulsor_count and len(scan.diameters[0]) == 41
    assert list(_contraction_candidates(model, F(1, 27), 40, 1)) == []


@pytest.mark.parametrize("depth, skipped", [(4, True), (3, False)])
def test_too_many_live_cells_skip_the_stream(monkeypatch, depth, skipped):
    # the images of K's intervals are disjoint, so no walk keeps more than
    # diam(K) / delta cells at an image diameter of delta or more, and the
    # skip for len(live) * delta > diam(K) fires only on a scan that says
    # otherwise: here every cell's image diameter reads diam(K) = 1.  Both
    # sets give A at most MAX_POINTS = 4 points (4 and 2 clusters); the 16
    # live depth-4 cells (16/9 > 1) skip the stream before any word is composed,
    # the 8 depth-3 cells (8/9 <= 1) go on to the words.  The scan reads
    # each cell's runs, here one run over the hull of K per cell and step
    words = []
    monkeypatch.setattr(certify, "cell_image_runs", lambda t, cells, n: (
        [(cells[0][0], cells[-1][1], c) for c in range(len(cells))] for _ in range(n + 1)))
    monkeypatch.setattr(certify, "forward_word",
                        lambda t, n: words.append(n) or forward_word(t, n))
    found = list(_contraction_candidates(_free_model(depth, 0), F(1, 27), 3, 1))
    assert (found == words == []) == skipped
