"""The random-walk statistics of acceptance criteria 1, 8 and 9.

No command-line kind reports them.  They check statements that the
alternative's proof rests on: short reduced words in a ping-pong pair are
not the identity (criterion 1), two points along one trajectory either
synchronize or stay apart (criterion 8), and the backward images of a
point accumulate (criterion 9).  Orbits are exact and pointwise, through
the package's own kernels; rates and sums are floats.
"""

import math
from functools import reduce
from statistics import fmean
from typing import NamedTuple, Sequence

from cantorwalk.certify import _reduced_words
from cantorwalk.maps import apply, invert
from cantorwalk.rational import as_pair, rat
from cantorwalk.verify import _then
from cantorwalk.walk import DEFAULT_DELTA, Trajectory, _single_linkage

from fixtures import endpoints, is_identity

SLOPE_MARGIN = -0.01  # fitted log-slope below this counts as decay


def free_group_sanity(a1, a2, L: int) -> bool:
    """True iff every nontrivial reduced word of length <= L in a1, a2 and
    their inverses differs from the identity.  Words are screened on four
    witness points; only a word fixing every witness is compared as a map."""
    letters = [a1, invert(a1), a2, invert(a2)]
    ends = endpoints(a1.space)
    witnesses = tuple(sorted({ends[0], ends[len(ends) // 3],
                              ends[(2 * len(ends)) // 3], ends[-1]}))

    def move(vals, g):
        return tuple(apply(g, v) for v in vals)

    return not any(
        vals == witnesses and is_identity(reduce(_then, (letters[k] for k in idxs), None))
        for idxs, vals in _reduced_words(letters, [1, 0, 3, 2], L, witnesses, move))


def forward_orbit(t: Trajectory, x, n: int) -> list:
    """Exact values f_omega^k(x) for k = 0..n."""
    out = [rat(x)]
    for k in range(n):
        out.append(apply(t.step_map(k), out[-1]))
    return out


def backward_value(t: Trajectory, x, k: int):
    """f_omega_0 o ... o f_omega_(k-1) at x, exactly."""
    return reduce(lambda y, i: apply(t.step_map(i), y), range(k - 1, -1, -1), rat(x))


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
    """(verdict, rate) for the tail of a distance series of int pairs:
    `far` if it stays at least delta; `near`, with the fitted decay rate,
    if its log decays and it ends below delta; else 'undecided'."""
    dn, dd = delta.numerator, delta.denominator
    if all(n * dd >= dn * d for n, d in tail):
        return far, 0.0
    slope = _fit_slope([math.log(n / d) if n > 0 else math.log(1e-300)
                        for n, d in tail])
    n, d = tail[-1]
    if slope < SLOPE_MARGIN and n * dd < dn * d:
        return near, -slope
    return "undecided", 0.0


def pair_verdict(t: Trajectory, x, y, delta, n: int):
    """'synchronized', 'separated' or 'undecided' for one pair along one
    trajectory, by the tail of its distance series, with the fitted decay
    rate."""
    if x == y:
        return "synchronized", 0.0
    dists = [as_pair(abs(a - b)) for a, b in zip(forward_orbit(t, x, n),
                                                 forward_orbit(t, y, n))]
    return _tail_verdict(dists[n // 2:], delta, "separated", "synchronized")


class DichotomyReport(NamedTuple):
    lambda_fit: float  # the mean decay rate of the synchronized distinct pairs
    synchronized: int
    separated: int
    undecided: int


def dichotomy_report(model, pairs, delta=DEFAULT_DELTA, n: int = 60) -> DichotomyReport:
    """The verdicts of the pairs, pair i along stream i."""
    counts = dict.fromkeys(("synchronized", "separated", "undecided"), 0)
    rates = []
    for i, (x, y) in enumerate(pairs):
        verdict, rate = pair_verdict(Trajectory(model, stream=i), x, y, delta, n)
        counts[verdict] += 1
        if verdict == "synchronized" and x != y:
            rates.append(rate)
    return DichotomyReport(fmean(rates) if rates else 0.0, **counts)


def backward_cluster(model, x, n: int, runs: int, radius):
    """Per run r (stream r), the cluster count of the backward values
    f-bar^k(x), n/2 <= k <= n, at the radius; and the largest count."""
    counts = []
    for r in range(runs):
        t = Trajectory(model, stream=r)
        vals = sorted({backward_value(t, x, k) for k in range(n // 2, n + 1)})
        counts.append(len(_single_linkage([(as_pair(v),) * 2 for v in vals], as_pair(radius))))
    return counts, max(counts)


def delta_sum_statistic(model, points, n: int, runs: int):
    """Over runs r (stream r), the partial sums S_k of Delta(f-bar^j(points)),
    the least gap between the backward values, for j <= k <= n: the mean and
    greatest S_n, and the mean increment per step over the last quarter."""
    sums, increments = [], []
    q = max(1, n // 4)
    for r in range(runs):
        t = Trajectory(model, stream=r)
        partial, s = [], 0.0
        for k in range(n + 1):
            vs = sorted(backward_value(t, p, k) for p in points)
            s += min(float(b - a) for a, b in zip(vs, vs[1:]))
            partial.append(s)
        sums.append(s)
        increments.append((partial[-1] - partial[-1 - q]) / q)
    return fmean(sums), max(sums), fmean(increments)
