"""Equality, hashing, immutability and truthiness of the program's classes.

Each class is built twice from equal but distinct inputs: the two copies
are equal with equal hashes, whatever caches one of them has filled, and
hash as the tuple of their fields; a change to any one field makes them
differ, and no field can be assigned or deleted.  The tuple classes Piece
and Branch hash as the tuple of their items, _make rebuilds one from those
items, and their Fraction views read back the constructor's inputs.
"""

from fractions import Fraction as F

import pytest

from cantorwalk.certify import AssemblyFailure, InfeasibilityReport, UnprovedMeasure
from cantorwalk.cli import _load_scenario_text, parse_scenario
from cantorwalk.maps import Branch, PAHomeo
from cantorwalk.space import CompactSet, Ifs, Piece, Region, ternary_cantor
from cantorwalk.verify import (FiniteOrbitCertificate, InvariantMeasureCertificate,
                               MorseSmaleCertificate, PingPongCertificate, Verdict)
from cantorwalk.walk import CellMeasure, WalkModel


def _identity(K):
    return PAHomeo(K, (Branch(F(0), F(1), F(1), F(0)),), ("I",))


def _flip(K):
    return PAHomeo(K, (Branch(F(0), F(1), F(-1), F(1)),), ("R",))


def _region(K, lo, hi):
    return Region(K, (Piece(F(lo), F(hi), True, True),))


# class -> (the keyword arguments of one instance, built afresh on each
# call; another value for each field that the change test replaces)
CASES = {
    Ifs: (lambda: dict(ratios=(F(1, 3), F(1, 3)), offsets=(F(0), F(2, 3)),
                       symbols=("0", "2")),
          dict(ratios=(F(1, 4), F(1, 4)), offsets=(F(0), F(3, 4)),
               symbols=("a", "b"))),
    CompactSet: (lambda: dict(ends=ternary_cantor(1).ends,
                              ifs=ternary_cantor(1).ifs, depth=1),
                 dict(ends=(((0, 1), (1, 1)),), ifs=None, depth=2)),
    Branch: (lambda: dict(lo=F(0), hi=F(1), slope=F(1), offset=F(0)),
             dict(lo=F(1, 3), hi=F(2, 3), slope=F(2), offset=F(-1, 3))),
    PAHomeo: (lambda: dict(space=ternary_cantor(1),
                           branches=_identity(ternary_cantor(1)).branches, label=("I",)),
              dict(space=ternary_cantor(2), branches=_flip(ternary_cantor(1)).branches,
                   label=("J",))),
    Region: (lambda: dict(space=ternary_cantor(1), pieces=(Piece(F(0), F(1, 3), True, True),)),
             dict(space=ternary_cantor(2), pieces=(Piece(F(0), F(1, 3), True, False),))),
    # the generators must live on the model's space, so space is not
    # changed on its own
    WalkModel: (lambda: dict(space=ternary_cantor(1), names=("I", "R"),
                             gens=(_identity(ternary_cantor(1)), _flip(ternary_cantor(1))),
                             probs=(F(1, 2), F(1, 2)), seed=7),
                dict(names=("I", "S"), gens=(_flip(ternary_cantor(1)), _identity(ternary_cantor(1))),
                     probs=(F(1, 3), F(2, 3)), seed=8)),
    CellMeasure: (lambda: dict(depth=1, masses=(F(1, 2), F(1, 2))),
                  dict(depth=2, masses=(F(1, 4), F(3, 4)))),
    PingPongCertificate: (
        lambda: dict(a1=_identity(ternary_cantor(1)), a2=_flip(ternary_cantor(1)),
                     A1=_region(ternary_cantor(1), 0, F(1, 3)),
                     B1=_region(ternary_cantor(1), F(2, 3), 1),
                     A2=_region(ternary_cantor(1), 0, F(1, 9)),
                     B2=_region(ternary_cantor(1), F(8, 9), 1)),
        dict(a1=_flip(ternary_cantor(1)), a2=_identity(ternary_cantor(1)),
             A1=_region(ternary_cantor(1), 0, 1), B1=_region(ternary_cantor(1), 0, 1),
             A2=_region(ternary_cantor(1), 0, 1), B2=_region(ternary_cantor(1), 0, 1))),
    InvariantMeasureCertificate: (
        lambda: dict(gens=(_identity(ternary_cantor(1)),), depth=1,
                     masses=(F(1, 2), F(1, 2)), consistency_depth=3),
        dict(gens=(_flip(ternary_cantor(1)),), depth=2, masses=(F(1, 3), F(2, 3)),
             consistency_depth=4)),
    FiniteOrbitCertificate: (
        lambda: dict(gens=(_flip(ternary_cantor(1)),),
                     orbit=(F(0), F(1))),
        dict(gens=(_identity(ternary_cantor(1)),), orbit=(F(0),))),
    MorseSmaleCertificate: (
        lambda: dict(g=_flip(ternary_cantor(1)), periodic=((F(1, 2), 1, F(-1)),),
                     A=_region(ternary_cantor(1), 0, F(1, 3)),
                     B=_region(ternary_cantor(1), F(2, 3), 1)),
        dict(g=_identity(ternary_cantor(1)), periodic=(),
             A=_region(ternary_cantor(1), 0, 1), B=_region(ternary_cantor(1), 0, 1))),
}

# a Branch is built from Fraction ends, slope and offset, and hashes as its
# items: those four as int pairs and its sorted image ends
HASH_KEYS = {Branch: tuple}

# class -> the cached properties that fill an instance's dict
CACHES = {PAHomeo: ("_lo_keys", "_image_order")}


def _fill_caches(obj):
    """Read every cache of obj and of all that its items hold."""
    for name in CACHES.get(type(obj), ()):
        getattr(obj, name)
    for part in obj if isinstance(obj, tuple) else ():
        _fill_caches(part)


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_equal_inputs_give_equal_instances(cls):
    make, other = CASES[cls]
    a, b = cls(**make()), cls(**make())
    _fill_caches(a)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    # equality and hash read the fields alone, caches and views aside
    key = HASH_KEYS.get(cls, lambda obj: tuple(getattr(obj, f) for f in make()))
    assert hash(a) == hash(key(a))
    for name, value in other.items():
        changed = cls(**dict(make(), **{name: value}))
        assert changed != a and not changed == a, name


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    make, other = CASES[cls]
    obj = cls(**make())
    for name in make():
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, other.get(name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == before


# tuple class -> (the constructor's arguments, built afresh on each call;
# the views that read the first of them back, in order, as a Piece's flags
# are read as its items; another value for each)
TUPLES = {
    Piece: (lambda: (F(1, 3), F(2, 3), True, False), ("lo", "hi"),
            (F(1, 4), F(3, 4), False, True)),
    Branch: (lambda: (F(1, 3), F(2, 3), F(-2), F(5, 3)), ("lo", "hi", "slope", "offset"),
             (F(0), F(1), F(3), F(-1))),
}


@pytest.mark.parametrize("cls", TUPLES, ids=lambda c: c.__name__)
def test_tuple_classes_are_their_items(cls):
    make, views, other = TUPLES[cls]
    a, b = cls(*make()), cls(*make())
    assert a is not b and a == b and hash(a) == hash(b) == hash(tuple(a))
    for i, value in enumerate(other):
        assert cls(*make()[:i], value, *make()[i + 1:]) != a, i
    rebuilt = cls._make(tuple(a))
    assert type(rebuilt) is cls and rebuilt == a
    assert tuple(getattr(a, v) for v in views) == make()[:len(views)]
    for name in views + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, F(0))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_reports_keep_their_truthiness():
    assert Verdict(True) and Verdict(True, "why")
    assert not Verdict(False) and not Verdict(False, "why")
    for failure in (InfeasibilityReport(3, F(1, 2)), UnprovedMeasure(3, 2),
                    AssemblyFailure("contraction"), AssemblyFailure("stage", "flag")):
        assert not failure


def test_scenarios_share_no_dicts():
    a, b = (parse_scenario(_load_scenario_text("free_pair")) for _ in range(2))
    assert a.generators.keys() == b.generators.keys()
    for name in ("generators", "budgets", "blowup"):
        assert getattr(a, name) is not getattr(b, name)
