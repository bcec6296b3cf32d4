"""Exact rationals, their reduced (numerator, denominator > 0) int pairs,
their "p/q" strings, and the type checks that read JSON input exactly."""

import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm


class RationalError(ValueError):
    """JSON input that states no exact value of the type asked for."""


def clip(value) -> str:
    """A value's text for a message, cut short past 40 characters: the repr
    of a string, quoted, else its str, which writes a Fraction as p/q."""
    t = repr(value) if isinstance(value, str) else str(value)
    return t if len(t) <= 40 else t[:37] + "..."


def rat(value) -> Fraction:
    """Coerce ints, "p/q" strings, or Fractions to an exact Fraction.

    Floats and bools are rejected, and a string stating no rational ("1/0"),
    or with a decimal exponent past the digit limit of int(), raises
    RationalError: every quantity entering the exact layer must be stated
    as a rational.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            exponent = int(value.lower().partition("e")[2] or 0)  # Fraction builds 10**exponent
            if 0 < sys.get_int_max_str_digits() < abs(exponent):
                raise ValueError
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise RationalError(f"not an exact rational: {clip(value)}") from None
    raise TypeError(f"not an exact rational: {clip(value)}")


# the strings pair_str writes, but for the coprimality of p and q > 1
_PAIR_STR = re.compile(r"(-?[1-9][0-9]*|0)(?:/(1[0-9]+|[2-9][0-9]*))?")


def read_pair(value) -> tuple:
    """as_pair(rat(value)), read straight into ints when value is a string
    that pair_str writes; any other value goes through rat."""
    if type(value) is str and (m := _PAIR_STR.fullmatch(value)):
        try:
            n, d = map(int, m.groups("1"))
        except ValueError:  # past the digit limit of int(): rat refuses it
            n = d = 0
        if gcd(n, d) == 1:
            return n, d
    return as_pair(rat(value))


def exact(value, kind: type, what: str):
    """value, when its type is kind itself: a bool is no int, and no float is truncated."""
    if type(value) is not kind:
        noun = {int: "an integer", bool: "a boolean", str: "a string"}[kind]
        raise RationalError(f"{what}: {clip(value)} is not {noun}")
    return value


def coprime_fraction(n: int, d: int) -> Fraction:
    """n/d for coprime ints n and d > 0, without the gcd of Fraction(n, d)."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


def as_pair(x) -> tuple:
    """The int pair of a Fraction or an int."""
    return x.numerator, x.denominator


def affine(s: tuple, x: tuple, o: tuple = (0, 1)) -> tuple:
    """s*x + o on (numerator, denominator > 0) int pairs, reduced."""
    (sn, sd), (xn, xd), (on, od) = s, x, o
    n, d = sn * xn * od + on * sd * xd, sd * xd * od
    g = gcd(n, d)
    return n // g, d // g


def pair_cmp(u: tuple, v: tuple) -> int:
    """An int of the sign of u - v, for (numerator, denominator > 0) pairs."""
    return u[0] * v[1] - v[0] * u[1]


# orders (numerator, denominator > 0) int pairs by value
pair_key = cmp_to_key(pair_cmp)


def value_order(rows) -> list[int]:
    """The indices of the rows, tuples of (numerator, denominator > 0) pairs,
    sorted (stably) by their values left to right, which compare as ints
    over the pairs' least common denominator."""
    m = lcm(*(d for row in rows for _, d in row))
    ks = [tuple(n * (m // d) for n, d in row) for row in rows]
    return sorted(range(len(rows)), key=ks.__getitem__)


def pair_keys(col) -> tuple:
    """(m, keys) of a column of (numerator, denominator > 0) pairs: m the
    least common denominator and keys the pairs' values times m, ints, in
    the column's order.  A key k is at most x = xn/xd iff
    k <= floor(xn*m / xd), and below it iff k < ceil(xn*m / xd)."""
    m = lcm(*(d for _, d in col))
    return m, [n * (m // d) for n, d in col]


def place_right(mk: tuple, x: tuple) -> int:
    """bisect.bisect_right of the pair x in the sorted column whose pair_keys are mk."""
    (m, keys), (xn, xd) = mk, x
    return bisect_right(keys, xn * m // xd)


def place_left(mk: tuple, x: tuple) -> int:
    """bisect.bisect_left of the pair x in the sorted column whose pair_keys are mk."""
    (m, keys), (xn, xd) = mk, x
    return bisect_left(keys, -(-xn * m // xd))


def pair_str(p: tuple) -> str:
    """The "p/q" string of a reduced int pair, "p" when q is 1."""
    return str(p[0]) if p[1] == 1 else f"{p[0]}/{p[1]}"


def rat_str(value) -> str:
    """The "p/q" string of rat(value)."""
    return pair_str(as_pair(rat(value)))
