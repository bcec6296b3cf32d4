"""Exact linear feasibility over the rationals.

Phase-1 simplex with Fraction arithmetic and Bland's rule: decides
{x >= 0 : A x = b} exactly and, when infeasible, reports the positive
phase-1 optimum as the exact infeasibility gap.  The tableau rows and the
objective are sparse {column: value} dicts, so the ratio test and the
pivot skip zero entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence


class FeasibilityResult(NamedTuple):
    feasible: bool
    solution: Optional[tuple[Fraction, ...]]
    gap: Fraction  # phase-1 optimum; 0 iff feasible


def _pivot(T: list, z: dict, leave: int, enter: int) -> None:
    """Scale row `leave` to 1 in column `enter` and clear that column from
    the other rows and the objective, dropping the entries that become 0."""
    piv = T[leave][enter]
    prow = T[leave] = {j: v / piv for j, v in T[leave].items()}
    for row in T + [z]:
        f = row.get(enter)
        if f is None or row is prow:
            continue
        for j, w in prow.items():
            v = row.get(j, 0) - f * w
            if v:
                row[j] = v
            else:
                row.pop(j, None)


def solve_feasibility(rows: Sequence[dict], rhs: Sequence[Fraction],
                      n: int) -> FeasibilityResult:
    """Feasibility of the {column: value} rows over the columns 0..n-1;
    column n holds the right-hand side.  The artificial of row i (basis
    index n + i) never re-enters, so its column is not stored."""
    m = len(rows)
    T = []
    for row, b in zip(rows, rhs):
        sign = -1 if b < 0 else 1
        T.append({j: sign * Fraction(v) for j, v in (*row.items(), (n, b)) if v})
    basis = [n + i for i in range(m)]
    # minimize the sum of artificials: reduced costs sum the rows, 0 if basic
    z = {}
    for row in T:
        for j, v in row.items():
            z[j] = z.get(j, 0) + v

    while True:
        # Bland: the smallest improving structural column
        enter = min((j for j, v in z.items() if j < n and v > 0), default=None)
        if enter is None:
            break
        leave = best = None
        for i, row in enumerate(T):
            v = row.get(enter)
            if v is not None and v > 0:
                ratio = row.get(n, 0) / v
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            break  # unbounded cannot happen for phase 1; safety stop
        _pivot(T, z, leave, enter)
        basis[leave] = enter

    gap = z.get(n, Fraction(0))
    if gap != 0:
        return FeasibilityResult(False, None, gap)
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = T[i].get(n, Fraction(0))
    return FeasibilityResult(True, tuple(x), Fraction(0))
