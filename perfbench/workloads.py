"""Seeded inputs for the four workloads.

Every input belongs to a stratum (an input class, such as "certify-free on
the free model at depth 3") with a fixed pool of inputs.  The pools are the
same on every run and are exactly what the correctness record
(``expected.json``) covers.

A run is a fixed amount of work: whole periods of cycles, each cycle a
fixed mix of strata, as many periods as fit in ``--seconds`` at the nominal
cycle times below (measured on 2 shared CPUs with Python 3.11).  A faster
program finishes sooner; it does not run more items.  Pool sizes are chosen
so that a run at the default 45 s draws every input of a stratum a whole
number of times, so runs differ only in the order of their inputs; the
workload seed sets that order, per stratum and inside each cycle.  The same
seed gives the same inputs in the same order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd

# prefix tables (source address, target address, orientation); the same maps
# as cantorwalk.fixtures, spelled out because scenarios carry their tables
A1 = [["0", "020", 1], ["20", "022", 1], ["220", "00", 1], ["222", "2", 1]]
A2 = [["2", "202", 1], ["02", "200", 1], ["000", "22", 1], ["002", "0", 1]]
G3 = [["0", "00", 1], ["20", "02", 1], ["22", "2", 1]]
G3_INV = [["00", "0", 1], ["02", "20", 1], ["2", "22", 1]]
H = [["0", "2", 1], ["2", "0", 1]]
R = [["", "", -1]]
IDENTITY = [["", "", 1]]

# involutions permuting depth-1 or depth-2 cylinders (possibly reversing
# them); with the reflection R each generates a finite group, so the
# uniform Cantor measure is invariant and find-measure is feasible
KLEIN_TYPE = (
    (1, H),
    (2, [["00", "20", 1], ["20", "00", 1], ["02", "22", -1], ["22", "02", -1]]),
    (2, [["00", "22", 1], ["22", "00", 1], ["02", "02", 1], ["20", "20", 1]]),
    (2, [["00", "02", -1], ["02", "00", -1], ["2", "2", 1]]),
)

# break_words letters are A1, A1^-1, A2, A2^-1; INVERSE_LETTER[j] is the
# index of letter j's inverse
INVERSE_LETTER = (1, 0, 3, 2)
MAX_WORD = 16

# bundled scenarios: (name, command, flags)
BUNDLED = (("free_pair", "certify-free", ()),
           ("g3", "simulate", ("--emit-series",)),
           ("identity", "certify-free", ()),
           ("klein_four", "find-measure", ()),
           ("rotation_third", "giet-blowup", ()))


@dataclass(frozen=True)
class Item:
    """One unit of work: a scenario run through ``cli.main`` or one word
    pair for the library-level break check."""
    key: str                # record key, "<stratum>/<tag>"
    command: str            # CLI command, or "break-words"
    text: str               # scenario JSON, or "g letters|h letters"
    flags: tuple = ()
    bundled: str = ""       # bundled scenario name, run by name


@dataclass(frozen=True)
class Workload:
    name: str
    pools: dict             # stratum -> tuple of Items
    patterns: tuple         # cycle c follows patterns[c % len(patterns)]
    cycle_seconds: tuple    # nominal seconds of each pattern

    def n_cycles(self, seconds: float) -> int:
        """Whole periods of patterns that fill ``seconds`` at the nominal
        times, at least one period."""
        period = sum(self.cycle_seconds)
        return len(self.patterns) * max(1, round(seconds / period))

    def cycles(self, seed: int):
        """Endless cycles of items for this seed."""
        rng = random.Random(f"{self.name}:{seed}")
        order = {s: rng.sample(pool, len(pool)) for s, pool in self.pools.items()}
        used = dict.fromkeys(self.pools, 0)
        c = 0
        while True:
            strata = list(self.patterns[c % len(self.patterns)])
            rng.shuffle(strata)
            cycle = []
            for s in strata:
                cycle.append(order[s][used[s] % len(order[s])])
                used[s] += 1
            yield cycle
            c += 1

    def all_items(self):
        return [it for pool in self.pools.values() for it in pool]


def _scenario(kind, depth, gens, seed=0, inverses=False, budgets=None,
              probabilities=None) -> str:
    obj = {"kind": kind, "space": {"ifs": "ternary", "depth": depth},
           "generators": [{"name": n, "table": t} for n, t in gens],
           "seed": seed, "output": "item"}
    if inverses:
        obj["include_inverses"] = True
    if probabilities:
        obj["probabilities"] = probabilities
    if budgets:
        obj["budgets"] = budgets
    return json.dumps(obj, sort_keys=True)


def _pool(stratum, command, texts, flags=(), tags=None):
    """Items keyed "<stratum>/<tag>"; tags default to pool positions."""
    tags = range(len(texts)) if tags is None else tags
    return tuple(Item(f"{stratum}/{t}", command, text, flags)
                 for t, text in zip(tags, texts))


FREE = (("A1", A1), ("A2", A2))


# walk seeds whose ping-pong certificate ``cantorwalk verify`` rejects when
# it reads the maps back ("image of cylinder 0 is not a cylinder"), at
# depths 3 and 4.  That is a program defect; these inputs stay out of the
# timed pool so that runs time working paths, and the smoke test re-checks
# them so that the defect stays visible (README.md, "Known defects").
VERIFY_REJECTED = (6, 12)


def _free_certify(kind, depth, w) -> str:
    return _scenario(kind, depth, FREE, w, inverses=True,
                     budgets={"eps": "1/27"})


def _walk_pool(stratum, kind, texts_by_seed, seeds, flags=()):
    return _pool(stratum, kind, [texts_by_seed(w) for w in seeds], flags,
                 [f"w{w}" for w in seeds])


def _rotation(p: int, q: int) -> str:
    cut = f"{q - p}/{q}"
    giet = {"interval": ["0", "1"],
            "branches": [{"src": ["0", cut], "slope": "1", "offset": f"{p}/{q}"},
                         {"src": [cut, "1"], "slope": "1",
                          "offset": f"{p - q}/{q}"}]}
    return json.dumps({"kind": "giet-blowup", "space": {}, "giets": [giet],
                       "blowup": {"L": 3, "rho": "1/3"}, "seed": 0,
                       "output": "item"}, sort_keys=True)


def random_word(rng: random.Random) -> list:
    word = []
    for _ in range(rng.randint(1, MAX_WORD)):
        choices = [j for j in range(len(INVERSE_LETTER))
                   if not word or INVERSE_LETTER[j] != word[-1]]
        word.append(rng.choice(choices))
    return word


# Four input families, as (pools, cycle patterns, nominal seconds of each
# pattern).  The two workloads below are built from two families each.

def _certify_free():
    """certify-free and morse-smale on the free model (A1, A2 and inverses)
    at depths 3 and 4, plus inputs that must give up."""
    seeds = [w for w in range(20) if w not in VERIFY_REJECTED]
    pools = {}
    for kind, tag, sizes in (("certify-free", "cf", (18, 12)),
                             ("morse-smale", "ms", (4, 2))):
        for depth, n in zip((3, 4), sizes):
            pools[f"{tag}{depth}"] = _walk_pool(
                f"{tag}{depth}", kind,
                lambda w, kind=kind, depth=depth: _free_certify(kind, depth, w),
                seeds[:n])
    # the identity and the Klein four group have no free subgroup and no
    # contraction, so both searches give up (exit 2)
    identity, klein = (("id", IDENTITY),), (("H", H), ("R", R))
    for kind, tag, inputs in (
            ("certify-free", "ucf", ((identity, 3, 0), (klein, 4, 0),
                                     (klein, 3, 1), (identity, 4, 1))),
            ("morse-smale", "ums", ((klein, 3, 0), (identity, 4, 0)))):
        pools[tag] = _pool(tag, kind, [
            _scenario(kind, depth, gens, w, budgets={"eps": "1/27", "runs": 4})
            for gens, depth, w in inputs])
    # as many cheap items (Morse-Smale, give-up) as depth-4 ones
    patterns = (("cf3", "cf3", "cf3", "cf4", "cf4", "ms3", "ucf"),
                ("cf3", "cf3", "cf3", "cf4", "cf4", "ms4", "ums"))
    return pools, patterns, (3.9, 3.9)


def _find_measure():
    """find-measure at cell depth 5 to 7 and giet blow-ups of rotations."""
    pools = {}
    for d in (5, 6, 7):
        # {A1, A2} on a depth-d space has no invariant depth-d cell measure
        pools[f"inf{d}"] = _pool(f"inf{d}", "find-measure", [
            _scenario("find-measure", d, gens, budgets={"depth": d, "d_max": d})
            for gens in (FREE, FREE[::-1])])
        variants = KLEIN_TYPE if d < 7 else KLEIN_TYPE[:2]
        pools[f"klein{d}"] = _pool(f"klein{d}", "find-measure", [
            _scenario("find-measure", d, (("H", table), ("R", R)),
                      budgets={"depth": level, "d_max": d})
            for level, table in variants])
    pools["giet"] = _pool("giet", "giet-blowup", [
        _rotation(p, q) for q in range(2, 6) for p in range(1, q)
        if gcd(p, q) == 1][:8])
    # the depth-7 items (about 2.4 s infeasible, 5.7 s Klein) alternate
    base = ("inf5", "inf6", "klein5", "klein6", "giet", "giet")
    return pools, (base + ("inf7",), base + ("klein7",)), (4.3, 7.6)


def _simulate_long():
    """simulate --emit-series on the free and g3 models, n = 40, 80, 160."""
    pools = {}
    for n, size in ((40, 6), (80, 2), (160, 2)):
        pools[f"free{n}"] = _walk_pool(
            f"free{n}", "simulate",
            lambda w, n=n: _scenario("simulate", 3, FREE, w, inverses=True,
                                     budgets={"n": n, "eps": "1/27"}),
            range(size), ("--emit-series",))
        pools[f"g3_{n}"] = _walk_pool(
            f"g3_{n}", "simulate",
            lambda w, n=n: _scenario("simulate", 3, (("G3", G3), ("G3^-1", G3_INV)),
                                     w, budgets={"n": n},
                                     probabilities=["2/3", "1/3"]),
            range(size), ("--emit-series",))
    # n = 40 : 80 : 160 as 6 : 1 : 1 per model; the free model's n = 80 and
    # 160 items (about 1.4 s and 5 s) share a cycle, the g3 ones (about
    # 0.7 s and 1.8 s) the other
    base = ("free40",) * 3 + ("g3_40",) * 3
    return (pools, (base + ("free80", "free160"), base + ("g3_80", "g3_160")),
            (8.7, 4.4))


def _break_words(n_pairs, per_cycle):
    """Reduced word pairs of length 1 to 16 for the criterion-2 check."""
    texts = []
    for i in range(n_pairs):
        rng = random.Random(f"break_words/{i}")
        g, h = random_word(rng), random_word(rng)
        texts.append(" ".join(map(str, g)) + "|" + " ".join(map(str, h)))
    return ({"pair": _pool("pair", "break-words", texts)},
            (("pair",) * per_cycle,), (per_cycle * 0.17,))


def _combine(name, families, order):
    """A workload whose period runs the families' patterns in ``order``, a
    list of (family index, pattern index)."""
    pools = {}
    for fam_pools, _, _ in families:
        pools.update(fam_pools)
    return Workload(name, pools,
                    tuple(families[f][1][p] for f, p in order),
                    tuple(families[f][2][p] for f, p in order))


def certify_both() -> Workload:
    # period about 23.6 s; at 45 s two periods draw cf3 18 times, cf4 12,
    # ms3 and ucf 4, ms4 and ums 2, inf5, inf6, klein5 and klein6 4,
    # inf7 and klein7 2 and giet 8: every pool a whole number of times
    return _combine(
        "certify_both", [_certify_free(), _find_measure()],
        [(0, 0), (0, 1), (1, 0), (0, 0), (1, 1)])


def long_words() -> Workload:
    # period about 22.6 s; at 45 s two periods draw each n = 40 stratum 12
    # times, the n = 80 and 160 strata twice and each of the 112 pairs once
    return _combine(
        "long_words", [_simulate_long(), _break_words(112, 28)],
        [(0, 0), (1, 0), (0, 1), (1, 0)])


WORKLOADS = {w.name: w for w in (certify_both(), long_words())}


def known_defects():
    """Inputs on which the program is known to fail a check."""
    return tuple(Item(f"defect/cf{d}/w{w}", "certify-free",
                      _free_certify("certify-free", d, w))
                 for d in (3, 4) for w in VERIFY_REJECTED)


# a short word pair run once before timing to warm the break-check path
WARM_PAIR = Item("warm/pair", "break-words", "0 2|3 1")


def bundled_items():
    return tuple(Item(f"bundled/{name}", command, "", flags, bundled=name)
                 for name, command, flags in BUNDLED)
