"""The spaces, maps, alphabets and strategies that the tests share.

Canonical maps on the ternary Cantor set: all addresses are over the
alphabet {0, 2}; orientations are +1 unless noted.  H swaps the two halves,
R is the reflection, G3 translates mass toward 0, and A1/A2 admit an exact
ping-pong certificate.  The prefix tables are read from the bundled
scenarios that use them.  Beside them: IFSs and plain sets, the letter sets
over them and words in those letters, hypothesis strategies for words,
regions and finite groups, small builders and Fraction views of the
program's cylinder lookups, and written certificates of each type.
"""

import json
from fractions import Fraction as F
from functools import cache
from importlib import resources
from itertools import product

from hypothesis import strategies as st

from cantorwalk.certify import find_finite_orbit
from cantorwalk.cli import _load_scenario_text, parse_scenario, run_scenario
from cantorwalk.giet import Giet, giet_from_branches
from cantorwalk.maps import (Branch, PAHomeo, PrefixTable, break_pairs, compose, equals,
                             from_prefix_table, invert, pa_homeo)
from cantorwalk.rational import as_pair, coprime_fraction
from cantorwalk.serialize import CERTIFICATES, certificate_to_obj, dumps
from cantorwalk.space import CompactSet, Ifs, Piece, Region, measure_cells, ternary_cantor


def _scenario_tables(*names) -> dict:
    """Generator name -> prefix table over the named bundled scenarios."""
    tables = {}
    for name in names:
        path = resources.files("cantorwalk") / "scenarios" / f"{name}.json"
        for g in json.loads(path.read_text())["generators"]:
            tables[g["name"]] = PrefixTable(
                tuple((src, dst, int(sign)) for src, dst, sign in g["table"]))
    return tables


TABLES = {n: t for n, t in _scenario_tables("klein_four", "g3",
                                             "free_pair").items()
          if n in ("H", "R", "G3", "A1", "A2")}

DEFAULT_DEPTH = 3


def cantor_space(depth: int = DEFAULT_DEPTH) -> CompactSet:
    return ternary_cantor(depth)


def fixture(name: str, space: CompactSet = None) -> PAHomeo:
    if space is None:
        space = cantor_space()
    return from_prefix_table(TABLES[name], space, label=(name,))


def named_generators(names, space: CompactSet = None,
                     with_inverses: bool = False) -> dict:
    """Ordered name -> PAHomeo dict; inverses appended as name^-1."""
    if space is None:
        space = cantor_space()
    gens = {n: fixture(n, space) for n in names}
    if with_inverses:
        for n in list(gens):
            gens[n + "^-1"] = invert(gens[n])
    return gens


def endpoints(K: CompactSet) -> list:
    """The ends of K's intervals, sorted."""
    return sorted({x for iv in K.intervals for x in iv})


def region(K: CompactSet, pairs) -> Region:
    """The region of K holding the closed intervals (lo, hi) of pairs."""
    return Region.from_pieces(K, [Piece(lo, hi, True, True) for lo, hi in pairs])


def cylinder_region(K: CompactSet, address: str) -> Region:
    return Region(K, (Piece._make((*K.ifs.cylinder(address), True, True)),))


def identity_map(space: CompactSet) -> PAHomeo:
    """The identity of K: one branch over K's hull, as pa_homeo stores it."""
    lo, hi = space.hull
    return pa_homeo(space, [Branch(lo, hi, F(1), F(0))])


def is_identity(f: PAHomeo) -> bool:
    return equals(f, identity_map(f.space))


def regular_on(f: PAHomeo, a, b) -> bool:
    """Whether [a, b] holds no break pair of f."""
    return not any(a <= p.a and p.b <= b for p in break_pairs(f))


def rotation(t) -> Giet:
    """x -> x + t mod 1 on [0, 1), for 0 < t < 1."""
    return giet_from_branches((0, 1), [(0, 1 - t, 1, t), (1 - t, 1, 1, t - 1)])


def giet_value(g: Giet, x):
    return g.branch_at(x).value(x)


def conjugate_point(res, x):
    """A blow-up's F(x): x plus the weights blown at points <= x."""
    return x + sum(al for c, al in res.blown_points if c <= x)


# -- IFSs, plain sets and their letters ---------------------------------------

TERNARY = Ifs((F(1, 3), F(1, 3)), (F(0), F(2, 3)), ("0", "2"))
UNEQUAL = Ifs((F(1, 4), F(1, 3)), (F(0), F(2, 3)), ("0", "2"))
SPACES = [(TERNARY, d) for d in (3, 4, 5)] + [(UNEQUAL, 3), (UNEQUAL, 4)]


@cache
def free_letters(ifs, depth):
    """A1, A2 and their inverses on the depth-d set of the IFS."""
    K = CompactSet.from_ifs(ifs, depth)
    gens = [from_prefix_table(TABLES[n], K, label=(n,)) for n in ("A1", "A2")]
    return gens + [invert(g) for g in gens]


THREE_MAPS = Ifs((F(1, 5), F(1, 4), F(1, 5)), (F(0), F(2, 5), F(4, 5)),
                 ("a", "b", "c"))
# hull [-3/2, 1/2]: local coordinates change sign along the expansion
NEGATIVE = Ifs((F(1, 3), F(1, 3)), (F(-1), F(1, 3)), ("l", "r"))


# a set without IFS structure, a piecewise-linear map with a break inside
# [0, 1] that swaps [2, 3] and [4, 6], and an orientation-reversing involution
PLAIN = CompactSet.from_intervals([(0, 1), (2, 3), (4, 6)])
PLAIN_LETTERS = (
    pa_homeo(PLAIN, [Branch(F(0), F(1, 2), F(1, 2), F(0)),
                     Branch(F(1, 2), F(1), F(3, 2), F(-1, 2)),
                     Branch(F(2), F(3), F(2), F(0)),
                     Branch(F(4), F(6), F(1, 2), F(0))], label=("P",)),
    pa_homeo(PLAIN, [Branch(F(0), F(1), F(-1), F(3)),
                     Branch(F(2), F(3), F(-1), F(3)),
                     Branch(F(4), F(6), F(-1), F(10))], label=("Q",)))
# P^-1∘Q∘P: an orientation-reversing involution with kinks at 1/2 and 11/2
PLAIN_INVOLUTION = compose(invert(PLAIN_LETTERS[0]),
                           compose(PLAIN_LETTERS[1], PLAIN_LETTERS[0]))
# a plain set with branches given across its gaps, which pa_homeo stores
# cut at the gaps.  T swaps [0, 1] and [4, 5] and is the identity on
# [2, 19/5], carrying the gap (3, 16/5) onto itself; V is the identity on
# [0, 3], across the gap (1, 2), and swaps [16/5, 19/5] and [4, 5].  S is
# x + 2 on [0, 3], which would carry the gap (1, 2) onto (3, 4), holding
# [16/5, 19/5], the identity on that interval and x - 4 on [4, 5]; cut at
# the gap, its branch images do not overlap
SPANNING = CompactSet.from_intervals([(0, 1), (2, 3), (F(16, 5), F(19, 5)), (4, 5)])
SPANNING_BRANCHES = {  # as given, before the cut
    "T": [Branch(F(0), F(1), F(1), F(4)),
          Branch(F(2), F(19, 5), F(1), F(0)),
          Branch(F(4), F(5), F(1), F(-4))],
    "V": [Branch(F(0), F(3), F(1), F(0)),
          Branch(F(16, 5), F(19, 5), F(5, 3), F(-4, 3)),
          Branch(F(4), F(5), F(3, 5), F(4, 5))],
    "S": [Branch(F(0), F(3), F(1), F(2)),
          Branch(F(16, 5), F(19, 5), F(1), F(0)),
          Branch(F(4), F(5), F(1), F(-4))]}
SPANNING_LETTERS = tuple(pa_homeo(SPANNING, SPANNING_BRANCHES[n], label=(n,)) for n in "TV")
S = pa_homeo(SPANNING, SPANNING_BRANCHES["S"], label=("S",))


def _table_letters(K, *tables):
    """The maps of the prefix tables on K, then their inverses."""
    gens = [from_prefix_table(PrefixTable(tuple(map(tuple, t))), K) for t in tables]
    return gens + [invert(g) for g in gens]


@cache
def alphabets(extra=0):
    """Letter sets: A1, A2 and inverses on every space; the same with the
    reflection R on the ternary set; two orientation-reversing depth-2
    involutions on the ternary set; a depth-2 map and a swap of the outer
    children on THREE_MAPS; A1, A2, their inverses and the reflection on
    NEGATIVE; P, Q and P^-1 on the plain set; S, T, their inverses and V on
    SPANNING.
    With extra > 0 the IFS sets are that many levels deeper."""
    K = CompactSet.from_ifs(TERNARY, 3 + extra)
    reflection = PrefixTable((("", "", -1),))
    r = from_prefix_table(reflection, K, label=("R",))
    klein = _table_letters(
        K, [["00", "20", 1], ["20", "00", 1], ["02", "22", -1], ["22", "02", -1]],
        [["00", "02", -1], ["02", "00", -1], ["2", "2", -1]])
    three = _table_letters(
        CompactSet.from_ifs(THREE_MAPS, 2 + extra),
        [["a", "aa", 1], ["b", "ab", 1], ["ca", "ac", 1], ["cb", "b", 1], ["cc", "c", 1]],
        [["a", "c", 1], ["b", "b", 1], ["c", "a", 1]])
    lr = str.maketrans("02", "lr")
    KN = CompactSet.from_ifs(NEGATIVE, 3 + extra)
    negative = _table_letters(KN, *([[s.translate(lr), d.translate(lr), o]
                                     for s, d, o in TABLES[n].rules] for n in ("A1", "A2")))
    return ([free_letters(ifs, d + extra) for ifs, d in SPACES] +
            [free_letters(TERNARY, 3 + extra) + [r], klein, three,
             negative + [from_prefix_table(reflection, KN)],
             list(PLAIN_LETTERS) + [invert(PLAIN_LETTERS[0])],
             [S, SPANNING_LETTERS[0], invert(S), invert(SPANNING_LETTERS[0]),
              SPANNING_LETTERS[1]]])


def word_in(letters, indices):
    """The word in the letters of these indices, right to left, skipping a
    letter next to its inverse: among the first four, letters i and
    (i + 2) % 4 are mutually inverse."""
    w, last = None, None
    for i in indices:
        if last is not None and max(i, last) < 4 and i == (last + 2) % 4:
            continue
        w = letters[i] if w is None else compose(letters[i], w)
        last = i
    return w


@st.composite
def letter_words(draw, max_size=10):
    """(letters, a word of length 1 to max_size in them) with no letter
    next to its inverse."""
    letters = draw(st.sampled_from(alphabets()))
    return letters, word_in(letters, draw(st.lists(
        st.integers(0, len(letters) - 1), min_size=1, max_size=max_size)))


@st.composite
def regions(draw, K):
    """Unions of cells of K and of flagged rational intervals near its hull."""
    lo, hi = K.hull
    cells = measure_cells(K, draw(st.integers(1, K.depth + 1)))
    pieces = [Piece._make((l, r, True, True)) for l, r in
              draw(st.lists(st.sampled_from(cells), max_size=3))]
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted(draw(st.lists(
            st.fractions(lo - F(1, 8), hi + F(1, 8), max_denominator=3 ** 6),
            min_size=2, max_size=2)))
        pieces.append(Piece(a, b, draw(st.booleans()), draw(st.booleans())))
    return Region.from_pieces(K, pieces)


# -- finite groups and Thompson's F -------------------------------------------

R_TABLE = [["", "", -1]]
# H and tables of its kind from the benchmark's find-measure pools: signed
# permutations of the depth-2 cylinders, one written with a depth-1 row
KLEIN_TYPE = (
    (1, [["0", "2", 1], ["2", "0", 1]]),
    (2, [["00", "20", 1], ["20", "00", 1], ["02", "22", -1], ["22", "02", -1]]),
    (2, [["00", "22", 1], ["22", "00", 1], ["02", "02", 1], ["20", "20", 1]]),
    (2, [["00", "02", -1], ["02", "00", -1], ["2", "2", 1]]),
)
X0 = [["0", "00", 1], ["20", "02", 1], ["22", "2", 1]]
X1 = [["0", "0", 1], ["20", "200", 1], ["220", "202", 1], ["222", "22", 1]]


@st.composite
def signed_permutations(draw, k):
    """A prefix table sending the 2**k depth-k cylinders of the ternary set
    onto a drawn permutation of them, each row with a drawn orientation."""
    cylinders = ["".join(w) for w in product("02", repeat=k)]
    return [[s, t, draw(st.sampled_from([1, -1]))]
            for s, t in zip(cylinders, draw(st.permutations(cylinders)))]


@st.composite
def finite_groups(draw):
    """(k, tables): one or two signed permutations of the depth-k cylinders,
    1 <= k <= 3, or a Klein-type table, with R or without.  The group they
    generate is finite and permutes the depth-k cells."""
    if draw(st.booleans()):
        k, table = draw(st.sampled_from(KLEIN_TYPE))
        tables = [table]
    else:
        k = draw(st.integers(1, 3))
        tables = draw(st.lists(signed_permutations(k), min_size=1, max_size=2))
    return k, tables + [R_TABLE] * draw(st.booleans())


# -- measures of sets and regions, and cylinders on Fractions ------------------

def diameter(k: CompactSet) -> F:
    lo, hi = k.hull
    return hi - lo


def extremes(r: Region) -> tuple:
    """(inf, sup) of r ∩ K, the outer ends of the spans that r cuts from K's
    intervals; (None, None) when r misses K."""
    parts = r._parts()
    if not parts:
        return None, None
    return coprime_fraction(*parts[0][0]), coprime_fraction(*parts[-1][1])


def region_diameter(r: Region) -> F:
    inf, sup = extremes(r)
    return sup - inf


def same_set(a: Region, b: Region) -> bool:
    return a.subset_of(b) and b.subset_of(a)


def cylinder(ifs: Ifs, address: str) -> tuple[F, F]:
    """Ifs.cylinder on Fractions."""
    return tuple(coprime_fraction(*x) for x in ifs.cylinder(address))


def decompose_into_cylinders(k: CompactSet, lo: F, hi: F):
    """Ifs._cylinder_pairs of k's IFS on Fractions: (address, lo, hi) triples."""
    parts = k.ifs._cylinder_pairs(as_pair(lo), as_pair(hi))
    return parts and [(w, coprime_fraction(*a), coprime_fraction(*b)) for w, a, b in parts]


# free_pair as a Morse-Smale search, which certifies at seed 3
MORSE_SMALE = dict(kind="morse-smale", seed=3, budgets={}, output="ms")


def written_certificates(out) -> list:
    """The documents of a ping-pong, a Morse-Smale, an invariant-measure and
    a finite-orbit certificate: bundled free_pair, also run as MORSE_SMALE,
    and klein_four write the first three into out."""
    free_pair = json.loads(_load_scenario_text("free_pair"))
    for doc in (free_pair, dict(free_pair, **MORSE_SMALE),
                json.loads(_load_scenario_text("klein_four"))):
        assert run_scenario(parse_scenario(json.dumps(doc)), str(out), False)[0] == 0
    docs = [json.loads((out / f"{stem}_certificate.json").read_text())
            for stem in ("free_pair", "ms", "klein_four")]
    orbit = find_finite_orbit(named_generators(["H", "R"]), [F(0)], bound=2000)
    docs.append(json.loads(dumps(certificate_to_obj(orbit))))
    assert sorted(d["type"] for d in docs) == sorted(CERTIFICATES)
    return docs


def edited_certificate(name, edit, **changes):
    """The certificate of a bundled scenario, its fields replaced by
    changes, with edit applied to it, built when the test runs."""
    def build(tmp_path):
        scn = parse_scenario(json.dumps(dict(
            json.loads(_load_scenario_text(name)), **changes)))
        run_scenario(scn, str(tmp_path), False)
        doc = json.loads((tmp_path / f"{scn.output}_certificate.json").read_text())
        edit(doc)
        return doc
    return build

