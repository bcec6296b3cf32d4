"""The certify-free search against the exhaustive search it replaced.

certify._contraction_candidates takes a stream's repulsor cells by dropping
each cell at its first image diameter below DEFAULT_DELTA over the tail of
the horizon, and stops pushing the cells' images once no cell is left.
certify._first_inclusion screens each word of the ping-pong shrink loop by
the image of one end of K's intervals in K off A before composing it.  The
references below are the search as it was: the repulsors read off the full
walk.contraction_scan series, and every word composed and tested with
maps_into.  Both must give the same candidates, the same certificates and
the same failures, and the screen must never reject a word whose inclusion
holds.  The repulsor screen compares each cell's image diameter with
DEFAULT_DELTA by cross-multiplication; its reference reduces every cell's
diameter through walk.run_diameters, as the screen did before.
"""

from collections import Counter
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk import certify, maps, walk
from cantorwalk.certify import _contraction_candidates, _fixed_points, assemble_free_pair
from cantorwalk.cli import _load_scenario_text, parse_scenario
from cantorwalk.maps import apply, image, maps_into
from cantorwalk.rational import as_pair, coprime_fraction, pair_cmp, pair_key
from cantorwalk.serialize import certificate_to_obj, dumps
from cantorwalk.space import Region, epsilon_neighborhood
from cantorwalk.walk import (DEFAULT_DELTA, Trajectory, WalkError, _extremes,
                             _repulsor_extremes, _single_linkage, cell_image_runs,
                             contraction_scan, forward_word, make_model, measure_cells,
                             run_diameters)

from fixtures import cantor_space, named_generators
from test_lookups import letter_words, regions


def _first_word(t, A, eps, p_cap, n_max):
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
        if not B or len(B) > p_cap:
            continue
        b_reg = epsilon_neighborhood(B, eps, K)
        if maps_into(w, off, b_reg):
            return t, n, w, A, B
    return None


def contraction_candidates_ref(model, eps, p_cap, n_max, streams):
    """The candidate search with A from the full contraction_scan."""
    K = model.space
    cells = K.intervals  # the cells at K's depth, as Fractions
    for r in range(streams):
        t = Trajectory(model, stream=r)
        try:
            scan = contraction_scan(t, K.depth, min(n_max, 24))
        except WalkError:
            continue
        pts = [x for v, cell in zip(scan.verdicts, cells) if v == "repulsor"
               for x in cell]
        A = _extremes(_single_linkage(pts, 3 * (cells[0][1] - cells[0][0])), K.hull)
        if A and len(A) <= p_cap and (found := _first_word(t, A, eps, p_cap, n_max)):
            yield found


def contraction_candidates_screen_ref(model, eps, p_cap, n_max, streams):
    """The candidate search with the repulsor screen on run_diameters."""
    K = model.space
    cells = measure_cells(K, K.depth)
    h, delta = min(n_max, 24), as_pair(DEFAULT_DELTA)
    for r in range(streams):
        t = Trajectory(model, stream=r)
        keep = range(len(cells))
        for runs in islice(cell_image_runs(t, cells, h), h // 2, None):
            diams = run_diameters(runs, len(cells))
            keep = [i for i in keep if pair_cmp(diams[i], delta) >= 0]
            if not keep:
                break
        live = [cells[i] for i in keep]
        A = _repulsor_extremes(live, cells, K.hull)
        if not A or len(A) > p_cap or len(live) * DEFAULT_DELTA > K.hull[1] - K.hull[0]:
            continue
        if found := _first_word(t, A, eps, p_cap, n_max):
            yield found


def first_inclusion_ref(usable, off, b_reg, n_max):
    """The unscreened shrink loop: every word composed and tested."""
    for t, n, _, _, _ in usable:
        for n2 in range(n, n_max + 1):
            w2 = forward_word(t, n2)
            if maps_into(w2, off, b_reg):
                return w2
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


def _candidates(search, model, streams=16):
    return [(t.stream, n, w.branches, tuple(A), tuple(B))
            for t, n, w, A, B in search(model, F(1, 27), 4, 40, streams)]


@pytest.mark.parametrize("which, seed", MODELS)
def test_candidates_match_full_scan(which, seed):
    model = _model(which, seed)
    assert _candidates(_contraction_candidates, model) == \
        _candidates(contraction_candidates_ref, model)


@pytest.mark.parametrize("which, seed", MODELS)
def test_free_pair_matches_unscreened_search(monkeypatch, which, seed):
    def assemble():
        res = assemble_free_pair(_model(which, seed), F(1, 27))
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


def test_candidates_need_a_positive_horizon():
    with pytest.raises(certify.CertifyError, match="n_max"):
        next(_contraction_candidates(_free_model(3, 0), F(1, 27), 4, 0, 16))


@settings(max_examples=80, deadline=None)
@given(letter_words(max_size=6), st.data())
def test_screen_never_rejects_an_inclusion(word, data):
    # any point x of S and K: image(w, S) inside T puts w(x) in T
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
        assert all(T.contains(apply(w, x)) for x in ends if S.contains(x))


def test_search_composes_and_tests_fewer_words(monkeypatch):
    # free model at depth 3, walk seed 0: the full scan and the unscreened
    # loop made 65 maps_into and 138 compose calls, the early-exit scan
    # and the point screen 35 and 124; the scan now composes no word
    counts = Counter()
    for name in ("maps_into", "compose"):
        for mod in (maps, walk, certify):
            if hasattr(mod, name):
                fn = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *a, name=name, fn=fn:
                                    counts.update([name]) or fn(*a))
    assert assemble_free_pair(_free_model(3, 0), F(1, 27))
    assert counts["maps_into"] <= 40
    assert counts["compose"] <= 64


def test_cell_scans_compose_no_word(monkeypatch):
    # contraction_scan and the repulsor scan of _contraction_candidates push
    # the cells' images letter by letter; stream 0 of the free model at
    # depth 3 keeps a cell past step 12 and is then rejected, with no A
    def compose(*args):
        raise AssertionError("compose called")

    for mod in (maps, walk, certify):
        monkeypatch.setattr(mod, "compose", compose)
    model = _free_model(3, 0)
    scan = contraction_scan(Trajectory(model, stream=1), 3, 40)
    assert scan.repulsor_count and len(scan.diameters[0]) == 41
    assert list(_contraction_candidates(model, F(1, 27), 4, 40, 1)) == []


@pytest.mark.parametrize("depth, skipped", [(4, True), (3, False)])
def test_too_many_live_cells_skip_the_stream(monkeypatch, depth, skipped):
    # the images of K's intervals are disjoint, so no walk keeps more than
    # diam(K) / delta cells at an image diameter of delta or more, and the
    # skip for len(live) * delta > diam(K) fires only on a scan that says
    # otherwise: here every cell's image diameter reads diam(K) = 1.  Both
    # sets give A at most p_cap = 4 points (4 and 2 clusters); the 16 live
    # depth-4 cells (16/9 > 1) skip the stream before any word is composed,
    # the 8 depth-3 cells (8/9 <= 1) go on to the words.  The scan reads
    # each cell's runs, here one run over the hull of K per cell and step
    words = []
    monkeypatch.setattr(certify, "cell_image_runs", lambda t, cells, n: (
        [(cells[0][0], cells[-1][1], c) for c in range(len(cells))] for _ in range(n + 1)))
    monkeypatch.setattr(certify, "forward_word",
                        lambda t, n: words.append(n) or forward_word(t, n))
    found = list(_contraction_candidates(_free_model(depth, 0), F(1, 27), 4, 3, 1))
    assert (found == words == []) == skipped
