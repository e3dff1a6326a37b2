"""Scalar arithmetic in two modes: exact rationals and binary64 floats.

Exact values are `fractions.Fraction` (plain ints are accepted and coerced);
float values are `float`.  The two modes never mix inside one computation:
anything that would combine them raises `MixedModeError`.  `Surd`, an exact
element r + t sqrt(d) of a real quadratic field, serves exact decisions on
the roots of integer quadratics (`quadratic_roots`).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]

EXACT = "exact"
FLOAT = "float"
_CLASS_MODES = {Fraction: EXACT, int: EXACT, float: FLOAT}

# Relative tolerance for float-mode rank-one tests: |det D| <= tol * ||D||_F^2.
# det scales quadratically, hence the quadratic normalization.
DEFAULT_TOL = 1e-9


class MixedModeError(TypeError):
    """Exact and float scalars met in a single computation."""


class MixedRadicandError(MixedModeError):
    """Surds over radicands whose product is not a square met."""


def mode_of(x: Scalar) -> str:
    if isinstance(x, float):
        return FLOAT
    if isinstance(x, (int, Fraction)):
        return EXACT
    raise TypeError(f"not a scalar: {x!r}")


def common_mode(*values: Scalar) -> str:
    # by exact class; bools, subclasses and non-scalars take mode_of's checks
    modes = set(map(_CLASS_MODES.get, map(type, values)))
    if None in modes:
        modes = {mode_of(v) for v in values}
    if len(modes) > 1:
        raise MixedModeError("cannot mix exact and float scalars")
    return modes.pop()


def as_exact(x: Scalar) -> Fraction:
    if mode_of(x) == FLOAT:
        raise MixedModeError("float scalar where an exact rational is required")
    return Fraction(x)


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal literals, exactly (e.g. "0.25" ->
    1/4)."""
    return Fraction(text.strip())


def sign(x: Scalar) -> int:
    return (x > 0) - (x < 0)


def rational_sqrt(x: Scalar) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    x = as_exact(x)
    if x < 0:
        raise ValueError("square root of negative value")
    pn = math.isqrt(x.numerator)
    qd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and qd * qd == x.denominator:
        return Fraction(pn, qd)
    return None


class Surd:
    """r + t sqrt(d): r and t rationals (Fractions or ints), d a positive
    int that is not a square.  Exact arithmetic with rationals and with
    surds over d, or over d2 with d d2 = k^2 a square: sqrt(d2) is then
    (k / d) sqrt(d).  A rational surd (t == 0) takes the radicand of the
    other operand.  Arithmetic with other surds raises
    MixedRadicandError; == compares values."""

    __slots__ = ("r", "t", "d")

    def __init__(self, r: Fraction, t: Fraction, d: int):
        self.r, self.t, self.d = r, t, d

    def _parts(self, o):
        """(r, t, d): o as r + t sqrt(d), over the radicand d of the
        result: self.d, or o.d when self is rational (self.t == 0)."""
        if not isinstance(o, Surd):
            return o, 0, self.d
        if o.d == self.d or not o.t:
            return o.r, o.t, self.d
        if not self.t:
            return o.r, o.t, o.d
        k = math.isqrt(self.d * o.d)
        if k * k != self.d * o.d:
            raise MixedRadicandError(
                f"cannot mix sqrt({self.d}) and sqrt({o.d})")
        return o.r, o.t * Fraction(k, self.d), self.d

    def __add__(self, o):
        r, t, d = self._parts(o)
        return Surd(self.r + r, self.t + t, d)

    def __mul__(self, o):
        r, t, d = self._parts(o)
        return Surd(self.r * r + self.t * t * d, self.r * t + self.t * r, d)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, o):
        return self + -o

    def inverse(self) -> "Surd":
        n = Fraction(self.r * self.r - self.t * self.t * self.d)
        return Surd(self.r / n, -self.t / n, self.d)

    def __truediv__(self, o):
        return self * (o.inverse() if isinstance(o, Surd)
                       else 1 / Fraction(o))

    def __eq__(self, o):
        try:
            return (self.r, self.t) == self._parts(o)[:2]
        except MixedRadicandError:  # 1, sqrt(d), sqrt(o.d) independent
            return False

    def sign(self) -> int:
        # the larger of r^2 and t^2 d decides: they differ unless both are
        # 0, because d is not a square
        if self.r * self.r > self.t * self.t * self.d:
            return sign(self.r)
        return sign(self.t)

    def __gt__(self, o):
        return (self - o).sign() > 0

    def __float__(self):
        root = scalar_sqrt(self.t * self.t * self.d) * sign(self.t)
        if sign(self.r) * sign(self.t) >= 0:
            return float(self.r) + root
        # opposite signs: divide to avoid the cancellation
        return float(self.r * self.r - self.t * self.t * self.d) / \
            (float(self.r) - root)


def quadratic_roots(p2: int, p1: int, p0: int) -> list:
    """The real roots of p2 z^2 + p1 z + p0, int coefficients, p2 != 0, as
    pairs (p, q) with root p / q and q = 2 p2: p is an int, or a Surd with
    int parts when the discriminant is not a square.  A double root is
    listed once."""
    disc = p1 * p1 - 4 * p2 * p0
    if disc < 0:
        return []
    if disc == 0:
        return [(-p1, 2 * p2)]
    root = math.isqrt(disc)
    if root * root == disc:
        return [(root - p1, 2 * p2), (-root - p1, 2 * p2)]
    return [(Surd(-p1, 1, disc), 2 * p2), (Surd(-p1, -1, disc), 2 * p2)]


def scalar_sqrt(x: Scalar) -> Scalar:
    """Square root; stays exact when the input is an exact perfect square,
    otherwise falls back to the correctly rounded float (OverflowError
    when that exceeds the float range)."""
    if mode_of(x) == EXACT:
        r = rational_sqrt(x)
        if r is not None:
            return r
        # x / 4^k lies in (1/2, 4), so the root of x 4^s, s = 60 - k, has
        # 60 or 61 bits; it is irrational, so a sticky last bit stands for
        # the rest, and one rounding gives the correctly rounded root
        n, d = x.numerator, x.denominator
        s = 60 - (n.bit_length() - d.bit_length()) // 2
        root = math.isqrt(n * 4 ** s // d if s >= 0 else n // (d * 4 ** -s))
        return (root | 1) / 2 ** s if s >= 0 else float((root | 1) * 2 ** -s)
    return math.sqrt(x)


def to_float(x: Scalar) -> float:
    """x rounded once to the nearest float, +-inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
