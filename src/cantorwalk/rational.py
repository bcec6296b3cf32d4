"""Helpers for exact rationals, their reduced (numerator, denominator > 0)
int pairs and their "p/q" string form."""

from fractions import Fraction
from functools import cmp_to_key
from math import gcd


def rat(value) -> Fraction:
    """Coerce ints, "p/q" strings, or Fractions to an exact Fraction.

    Floats are rejected: every quantity entering the exact layer must be
    stated as a rational.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


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


# orders (numerator, denominator > 0) int pairs by value
pair_key = cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1])


def rat_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
