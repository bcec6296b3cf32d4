"""Canonical maps on the ternary Cantor set, used across the tests.

All addresses are over the alphabet {0, 2}; orientations are +1 unless
noted.  H swaps the two halves, R is the reflection, G3 translates mass
toward 0, and A1/A2 admit an exact ping-pong certificate.  The prefix
tables are read from the bundled scenarios that use them.
"""

import json
from importlib import resources

from cantorwalk.maps import PAHomeo, PrefixTable, from_prefix_table, invert
from cantorwalk.space import CompactSet, ternary_cantor


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
