"""The sparse exact simplex against the dense tableau it replaced.

measure_solver.solve_feasibility keeps its rows and objective as
{column: value} dicts, leaves out the artificial columns (never read after
they leave the basis) and skips zero entries in the pivot, ratio and update
steps.  The reference below is the dense Fraction tableau as it was, with
its artificial columns.  Both take the smallest improving structural column,
the smallest ratio and, on ties, the smaller basis index, so they make the
same pivots and give equal results: on random systems, and on every system
that solve_invariant_measure hands the simplex for {A1, A2} and the
Klein-type generator sets at depths 3 to 7.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk import certify, measure_solver
from cantorwalk.certify import solve_invariant_measure
from cantorwalk.maps import PrefixTable, from_prefix_table
from cantorwalk.measure_solver import FeasibilityResult, solve_feasibility

from fixtures import TABLES, cantor_space


def dense_ref(rows, rhs):
    """(result, pivots) of the dense phase-1 tableau over n structural and m
    artificial columns and the right-hand side; pivots are (row, column)."""
    m, pivots = len(rows), []
    if m == 0:
        return FeasibilityResult(True, (), F(0)), pivots
    n = len(rows[0])
    A = [[F(v) for v in row] for row in rows]
    b = [F(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    width = n + m
    T = [A[i] + [F(1) if j == i else F(0) for j in range(m)] + [b[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    z = [F(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            z[j] += T[i][j]
    while True:
        enter = next((j for j in range(n) if j not in basis and z[j] > 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][width] / T[i][enter]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            break
        pivots.append((leave, enter))
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [v - f * w for v, w in zip(T[i], T[leave])]
        f = z[enter]
        if f != 0:
            z = [v - f * w for v, w in zip(z, T[leave])]
        basis[leave] = enter
    if z[width] != 0:
        return FeasibilityResult(False, None, z[width]), pivots
    x = [F(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = T[i][width]
    return FeasibilityResult(True, tuple(x), F(0)), pivots


def sparse_run(rows, rhs, n):
    """(result, pivots) of solve_feasibility on the {column: value} rows."""
    pivots, pivot = [], measure_solver._pivot

    def spy(T, z, leave, enter):
        pivots.append((leave, enter))
        pivot(T, z, leave, enter)

    measure_solver._pivot = spy
    try:
        return solve_feasibility(rows, rhs, n), pivots
    finally:
        measure_solver._pivot = pivot


def _dense(rows, n):
    return [[row.get(j, 0) for j in range(n)] for row in rows]


@st.composite
def systems(draw):
    """(sparse rows, rhs, n) with small integer entries, most of them 0."""
    n = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, 1, -1, 2, -2, 3])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    rhs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, 3]), min_size=len(rows),
                        max_size=len(rows)))
    return [{j: F(v) for j, v in enumerate(row) if v} for row in rows], [F(v) for v in rhs], n


@settings(max_examples=300, deadline=None)
@given(systems())
def test_sparse_simplex_makes_the_dense_pivots(system):
    rows, rhs, n = system
    assert sparse_run(rows, rhs, n) == dense_ref(_dense(rows, n), rhs)


KLEIN_TYPE = [
    [["0", "2", 1], ["2", "0", 1]],
    [["00", "20", 1], ["20", "00", 1], ["02", "22", -1], ["22", "02", -1]],
    [["00", "22", 1], ["22", "00", 1], ["02", "02", 1], ["20", "20", 1]],
    [["00", "02", -1], ["02", "00", -1], ["2", "2", 1]],
]


def _systems_handed_to_the_simplex(tables, depth):
    """The (rows, rhs, n) of every solve_feasibility call that
    solve_invariant_measure makes on the depth-d space, cells from depth d
    and the ladder to depth d + 1."""
    K = cantor_space(depth)
    gens = {f"g{i}": from_prefix_table(PrefixTable(tuple(map(tuple, t))), K)
            for i, t in enumerate(tables)}
    calls, solve = [], certify.solve_feasibility

    def spy(rows, rhs, n):
        calls.append(([dict(r) for r in rows], list(rhs), n))
        return solve(rows, rhs, n)

    certify.solve_feasibility = spy
    try:
        solve_invariant_measure(gens, depth, d_max=depth + 1)
    finally:
        certify.solve_feasibility = solve
    return calls


CASES = [pytest.param([TABLES["A1"].rules, TABLES["A2"].rules], d, id=f"A1-A2-d{d}")
         for d in range(3, 8)] + \
        [pytest.param([t, TABLES["R"].rules], d, id=f"klein{k}-R-d{d}")
         for k, t in enumerate(KLEIN_TYPE) for d in range(3, 8)]


@pytest.mark.parametrize("tables, depth", CASES)
def test_invariance_systems_make_the_dense_pivots(tables, depth):
    calls = _systems_handed_to_the_simplex(tables, depth)
    assert calls
    for rows, rhs, n in calls:
        assert sparse_run(rows, rhs, n) == dense_ref(_dense(rows, n), rhs)
