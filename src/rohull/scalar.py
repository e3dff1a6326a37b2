"""Scalar arithmetic in two modes: exact rationals and binary64 floats.

Exact values are `fractions.Fraction` (plain ints are accepted and coerced);
float values are `float`.  The two modes never mix inside one computation:
anything that would combine them raises `MixedModeError`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]

EXACT = "exact"
FLOAT = "float"

# Relative tolerance for float-mode rank-one tests: |det D| <= tol * ||D||_F^2.
# det scales quadratically, hence the quadratic normalization.
DEFAULT_TOL = 1e-9


class MixedModeError(TypeError):
    """Exact and float scalars met in a single computation."""


def mode_of(x: Scalar) -> str:
    if isinstance(x, float):
        return FLOAT
    if isinstance(x, (int, Fraction)):
        return EXACT
    raise TypeError(f"not a scalar: {x!r}")


def common_mode(*values: Scalar) -> str:
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


def scalar_sqrt(x: Scalar) -> Scalar:
    """Square root; stays exact when the input is an exact perfect square,
    otherwise falls back to the correctly rounded float."""
    if mode_of(x) == EXACT:
        r = rational_sqrt(x)
        if r is not None:
            return r
        return math.sqrt(x)
    if x < 0 and x > -1e-30:
        x = 0.0
    return math.sqrt(x)
