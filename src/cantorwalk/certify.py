"""The searches for certificates of the two branches of the alternative.

Every certificate emitted here is verified by exact rational computation,
by the checks of verify.py, before it is returned.  Searches are budgeted
and deterministic (shortlex word order, seeded walk streams); exhausting a
budget yields a falsy failure report, never an unverified claim.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import islice
from typing import NamedTuple, Optional, Sequence

from .rational import as_pair, coprime_fraction, pair_key, rat, value_order
from .maps import PAHomeo, _apply, compose, equals, image, invert, maps_into, orbit_bfs
from .space import Piece, Region, epsilon_neighborhood, measure_cells
from .measure_solver import solve_feasibility
from .walk import (DEFAULT_DELTA, Trajectory, WalkModel, cell_image_runs, forward_word,
                   _repulsor_extremes)
from .verify import (FiniteOrbitCertificate, InvariantMeasureCertificate, PingPongCertificate,
                     _fixed_points, _is_invariant, _then, check_morse_smale, invariance_rows,
                     verify_ping_pong)


MAX_POINTS = 4  # the most repulsors (A) or attractors (B) a contraction candidate has


class CertifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# failure reports


def _failure(self) -> bool:
    """A report of a search that proved nothing is always falsy."""
    return False


class InfeasibilityReport(NamedTuple):
    """The invariance system has no solution; gap is the exact positive
    phase-1 optimum witnessing infeasibility."""
    depth: int
    gap: Fraction
    __bool__ = _failure


class UnprovedMeasure(NamedTuple):
    """The expressible invariance equations have a solution, but `skipped`
    equations are not expressible on the depth-d cells."""
    depth: int
    skipped: int
    __bool__ = _failure


class UnalignedMeasure(NamedTuple):
    """No cell depth up to the d_max budget is aligned with the generators."""
    d_max: int
    __bool__ = _failure


class AssemblyFailure(NamedTuple):
    stage: str
    flag: Optional[str] = None
    __bool__ = _failure


# ---------------------------------------------------------------------------
# word enumeration


def _make_letters(named: dict):
    """(letters, inv) with inverses appended unless already present; inv[j]
    is the index of letter j's inverse (itself for involutions), and an
    appended inverse's is the letter it was appended for."""
    letters, inv, appended_for = list(named.values()), [], []
    for i, g in enumerate(named.values()):
        gi = invert(g)
        j = next((k for k, h in enumerate(letters) if equals(gi, h)), len(letters))
        if j == len(letters):
            letters.append(gi)
            appended_for.append(i)
        inv.append(j)
    return letters, inv + appended_for


def _reduced_words(letters, inv, max_len: int, start, step):
    """Reduced words in shortlex order, lengths 1..max_len, as (letter
    indices, value); letter j never follows its inverse inv[j].  The value
    folds step(value, letter) over the word's letters from start, and each
    word is yielded before the next one is built."""
    frontier = [((), start)]
    for _ in range(max_len):
        nxt = []
        for idxs, value in frontier:
            for j, g in enumerate(letters):
                if idxs and inv[j] == idxs[-1]:
                    continue
                word = idxs + (j,), step(value, g)
                nxt.append(word)
                yield word
        frontier = nxt


# ---------------------------------------------------------------------------
# finite orbits and displacement


def find_finite_orbit(gens: dict, starts, bound: int):
    """BFS closure of the start points under the generators, which is the
    orbit when finite; a certificate iff it has at most `bound` points."""
    maps = list(gens.values())
    ops = [partial(_apply, g) for g in maps]
    closure = orbit_bfs([as_pair(x) for x in {rat(s) for s in starts}], ops, cap=bound)
    if closure is None:
        return None
    # _apply found every point in the ambient set
    pts = closure[0]
    return FiniteOrbitCertificate(tuple(maps), tuple(
        coprime_fraction(*pts[i]) for i in value_order([(x,) for x in pts])))


def _find_region_displacement(letters, inv, src: Region, avoid: Region,
                              max_len: int) -> Optional[PAHomeo]:
    for _, w in _reduced_words(letters, inv, max_len, None, _then):
        if image(w, src).disjoint_from(avoid):
            return w
    return None


# ---------------------------------------------------------------------------
# contraction pairs


def _contraction_candidates(model: WalkModel, eps, n_max: int, streams: int):
    """Yields (trajectory, n, word, A points, B points) with the inclusion
    word(K off A^eps) subset of B^eps verified exactly; A comes from the
    repulsors of contraction_scan at horizon h = min(n_max, 24), each cell
    dropped at its first image diameter below DEFAULT_DELTA, steps h//2..h.
    A dropped cell stays dropped, so after each check every dropped cell's
    runs are tagged -1 and neighbours among them merge, across the gap of K
    between them.  A merged run covers the runs it replaces and that gap,
    so each kept cell's pieces keep their neighbours in image order, and
    its runs and diameters, hence keep and A, are those of the scan that
    pushes every cell to the horizon."""
    eps = rat(eps)
    K = model.space
    cells = measure_cells(K, K.depth)
    h, (dn, dd) = min(n_max, 24), as_pair(DEFAULT_DELTA)
    for r in range(streams):
        t = Trajectory(model, stream=r)
        keep = range(len(cells))
        for runs in islice(cell_image_runs(t, [(*c, i) for i, c in enumerate(cells)], h),
                           h // 2, None):
            # a cell's image diameter, last run's hi - first run's lo, against
            # delta by cross-multiplication
            first = {c: lo for lo, _, c in reversed(runs)}
            last = {c: hi for _, hi, c in runs}
            keep = [i for i in keep for (ln, ld), (hn, hd) in [(first[i], last[i])]
                    if (hn * ld - ln * hd) * dd >= dn * hd * ld]
            if not keep:
                break
            # pushed runs have no neighbours with one tag, so only -1 merges
            kept, merged = set(keep), []
            for lo, hi, c in runs:
                c = c if c in kept else -1
                if merged and merged[-1][2] == c:
                    merged[-1] = (merged[-1][0], hi, c)
                else:
                    merged.append((lo, hi, c))
            runs[:] = merged  # cell_image_runs pushes the merged runs next
        live = [cells[i] for i in keep]
        A = _repulsor_extremes(live, cells, K.hull)
        if not A or len(A) > MAX_POINTS or len(live) * DEFAULT_DELTA > K.hull[1] - K.hull[0]:
            continue
        off = Region.whole(K).difference(
            epsilon_neighborhood(A, eps, K))
        if off.is_empty():
            continue
        for n in range(1, n_max + 1):
            w = forward_word(t, n)
            B = [coprime_fraction(*x) for x in sorted(
                {x for x, _ in _fixed_points(w, attracting=True)[0]}, key=pair_key)]
            if not B or len(B) > MAX_POINTS:
                continue
            b_reg = epsilon_neighborhood(B, eps, K)
            if maps_into(w, off, b_reg):
                yield t, n, w, A, B
                break


# ---------------------------------------------------------------------------
# ping-pong assembly


def _first_inclusion(usable, off: Region, b_reg: Region, n_max: int):
    """The first word w = forward_word(t, n2) of the samples (t, n), n2 =
    n..n_max, with image(w, off) inside b_reg, and the samples from (t, n2)
    on, or None.  off is closed, so its pieces (tag 1) and the gaps between
    them (tag 0) tile K's hull; pushed n2 letters, the tag-1 runs hold
    image(w, off) and end in it.  Where a run merged across a gap of K's
    limit set, later letters can carry the gap into an interval of K that
    the image skips.  So w passes when each run lies in one piece of b_reg,
    fails when one has an end in K outside it, and is composed for
    maps_into only when neither settles a run."""
    (lo, _), (_, hi) = off.space.ends[0], off.space.ends[-1]
    tiling = []
    for a, b, _, _ in off.pieces:
        tiling += [(lo, a, 0)] * (a != lo) + [(a, b, 1)]
        lo = b
    tiling += [(lo, hi, 0)] * (lo != hi)
    for i, (t, n) in enumerate(usable):
        for n2, runs in islice(enumerate(cell_image_runs(t, tiling, n_max)), n, None):
            tested = (b_reg._covers(Piece._make((a, b, True, True)), False)
                      for a, b, tag in runs if tag)
            held = next((v for v in tested if v is not True), True)
            if held or held is None and maps_into(forward_word(t, n2), off, b_reg):
                return forward_word(t, n2), [(t, n2)] + usable[i + 1:]
    return None


def assemble_free_pair(model: WalkModel, eps, max_len: int, runs: int,
                       n_max: int):
    """Contraction, displacement, conjugation, exact verification; eps
    shrinks by thirds, at most three times, until the four sets separate.
    As eps falls, K off A^eps only grows and B^eps only shrinks, so a word
    that fails the inclusion at eps fails it at eps/3: each shrink resumes
    the word search at the word the last one returned, and the loop ends at
    the first shrink that finds none."""
    eps = rat(eps)
    K = model.space
    named = {n: g for n, g in zip(model.names, model.gens)}
    letters, inv = _make_letters(named)

    def failure(stage, flag=None):
        # a finite orbit through the hull's left end is the obstruction
        if find_finite_orbit(named, [K.hull[0]], bound=512) is not None:
            flag = "finite-orbit"
        return AssemblyFailure(stage, flag)

    samples = []
    for cand in _contraction_candidates(model, eps, n_max, min(runs, 16)):
        samples.append(cand)
        if len(samples) >= 4:
            break
    if not samples:
        return failure("contraction", "budget-exhausted")

    p, q = len(samples[0][3]), len(samples[0][4])
    usable = [s for s in samples if (len(s[3]), len(s[4])) == (p, q)]
    # the last usable sample's repulsors and attractors, both sorted, stand
    # for the limits
    A, B = usable[-1][3:]

    last_stage, todo = "displacement", [s[:2] for s in usable]
    for shrink in range(4):
        e = eps / 3 ** shrink
        a_reg = epsilon_neighborhood(A, e, K)
        b_reg = epsilon_neighborhood(B, e, K)
        off = Region.whole(K).difference(a_reg)
        found = _first_inclusion(todo, off, b_reg, n_max)
        if found is None:
            break
        g, todo = found
        if a_reg.disjoint_from(b_reg):
            a1, A1, B1 = g, a_reg, b_reg
        else:
            u = _find_region_displacement(letters, inv, b_reg, a_reg,
                                          max_len)
            if u is None:
                continue
            a1, A1, B1 = compose(u, g), a_reg, image(u, b_reg)
        both = A1.union(B1)
        v = _find_region_displacement(letters, inv, both, both, max_len)
        if v is None:
            continue
        a2 = compose(v, compose(a1, invert(v)))
        cert = PingPongCertificate(a1, a2, A1, B1,
                                   image(v, A1), image(v, B1))
        last_stage = "verify"
        if verify_ping_pong(cert):
            return cert
    return failure(last_stage)


# ---------------------------------------------------------------------------
# invariant cell measures


def _cells_compatible(maps: Sequence[PAHomeo], cells) -> bool:
    """Whether every branch source starts and ends at cell ends."""
    los, his = ({c[i] for c in cells} for i in (0, 1))
    return all(b[0] in los and b[1] in his for g in maps for b in g.branches)


def _invariance_system(inv_rows, nvar: int):
    """The system {A mu = b} for the exact simplex over nvar cells, as
    sparse {cell: coefficient} rows: the total-mass row (ones, 1), then one
    row (mu(c) - sum of mu(js), 0) per invariance row that is not 0 = 0."""
    rows, rhs = [dict.fromkeys(range(nvar), 1)], [Fraction(1)]
    for _, ci, js in inv_rows:
        row = dict.fromkeys(js, -1)
        row[ci] = row.get(ci, 0) + 1
        if any(row.values()):
            rows.append(row)
            rhs.append(Fraction(0))
    return rows, rhs


def solve_invariant_measure(gens: dict, depth: int, d_max: int):
    """Exact feasibility of {mu(g^-1 c) = mu(c), sum mu = 1, mu >= 0} over
    depth-d cells.  On a complete system each generator maps each cell onto
    a cell (a cylinder's image is a cylinder inside one cell, and the images
    have symbolic measure 1), so each child onto a child: consistent to d_max.

    Returns a certificate, or a falsy InfeasibilityReport carrying the
    exact phase-1 gap when the system has no solution, a falsy
    UnprovedMeasure when it has one but skips equations, or a falsy
    UnalignedMeasure when no depth up to d_max is cell-aligned.
    """
    if d_max < depth:
        raise CertifyError(f"budget 'd_max': {d_max} is below the cell depth {depth}")
    maps = list(gens.values())
    space = maps[0].space
    for d in range(depth, d_max + 1):
        cells = measure_cells(space, d)
        if _cells_compatible(maps, cells):
            break
    else:
        return UnalignedMeasure(d_max)

    inv_rows = invariance_rows(maps, cells)
    res = solve_feasibility(*_invariance_system(inv_rows, len(cells)), len(cells))
    if not res.feasible:
        return InfeasibilityReport(d, res.gap)
    if len(inv_rows) < len(maps) * len(cells):
        return UnprovedMeasure(d, len(maps) * len(cells) - len(inv_rows))
    masses = list(res.solution)
    if not _is_invariant(inv_rows, masses):
        raise CertifyError(f"simplex solution not invariant at depth {d}")
    return InvariantMeasureCertificate(tuple(maps), d, tuple(masses), d_max)


# ---------------------------------------------------------------------------
# Morse-Smale


def find_morse_smale(model: WalkModel, eps, n_max: int, runs: int):
    """Samples words of the symmetric walk and certifies the first one that
    is Morse-Smale with A from repulsor clusters and B from attracting
    fixed points, both fattened by eps."""
    if not model.is_symmetric:
        raise CertifyError("Morse-Smale search requires a symmetric model")
    eps = rat(eps)
    if not 0 < eps < 1:
        raise CertifyError("need 0 < eps < 1")
    K = model.space
    for _, _, w, A, B in _contraction_candidates(model, eps, n_max, runs):
        for e in (eps, eps / 3):
            a_reg = epsilon_neighborhood(A, e, K)
            b_reg = epsilon_neighborhood(B, e, K)
            cert = check_morse_smale(w, a_reg, b_reg)
            if cert:
                return cert
    return None
