"""2x2 matrix algebra and rank-one predicates.

All matrix entries live in a single scalar mode (exact rational or float);
values are immutable and safe to share.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalar import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    MixedModeError,
    Scalar,
    common_mode,
    mode_of,
    scalar_sqrt,
    sign,
)


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class Mat2:
    """A real 2x2 matrix [[a11, a12], [a21, a22]] in one scalar mode.

    An exact matrix is stored as four int numerators over one positive int
    denominator in lowest terms, gcd(n11, n12, n21, n22, d) == 1, so equal
    values have equal storage.  A float matrix is stored as its four floats
    and no denominator.  Arithmetic, ``det``, ``frob_sq``, ``det_cross``,
    ``combine`` and the sign predicates work on the stored
    numbers; Fractions appear only where a value leaves the kernel: the
    entries ``a11``..``a22``, ``entries()``, ``rows()`` and scalar results.
    The mode is checked once, when a matrix is built from scalars.
    """

    __slots__ = ("_n11", "_n12", "_n21", "_n22", "_d")

    def __init__(self, a11: Scalar, a12: Scalar, a21: Scalar, a22: Scalar):
        if common_mode(a11, a12, a21, a22) == EXACT:
            d = lcm(a11.denominator, a12.denominator,
                    a21.denominator, a22.denominator)
            self._n11 = a11.numerator * (d // a11.denominator)
            self._n12 = a12.numerator * (d // a12.denominator)
            self._n21 = a21.numerator * (d // a21.denominator)
            self._n22 = a22.numerator * (d // a22.denominator)
            self._d = d
        else:
            self._n11, self._n12, self._n21, self._n22 = a11, a12, a21, a22
            self._d = None
        self.__post_init__()

    def __post_init__(self):
        """Bring an exact value to lowest terms.  Every construction,
        arithmetic results included, calls this exactly once."""
        d = self._d
        if d is not None:
            g = gcd(self._n11, self._n12, self._n21, self._n22, d)
            if g != 1:
                self._n11 //= g
                self._n12 //= g
                self._n21 //= g
                self._n22 //= g
                self._d = d // g

    @property
    def mode(self) -> str:
        return FLOAT if self._d is None else EXACT

    def _entry(self, n) -> Scalar:
        return n if self._d is None else Fraction(n, self._d)

    a11 = property(lambda self: self._entry(self._n11))
    a12 = property(lambda self: self._entry(self._n12))
    a21 = property(lambda self: self._entry(self._n21))
    a22 = property(lambda self: self._entry(self._n22))

    @staticmethod
    def from_rows(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(a, b, c, d)

    @staticmethod
    def zero(mode: str = EXACT) -> "Mat2":
        if mode == EXACT:
            return Mat2(0, 0, 0, 0)
        return Mat2(0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def diag(x: Scalar, y: Scalar) -> "Mat2":
        # the constructions work in three subspaces, each a set of Mat2:
        # diagonal    [[x, 0], [0, y]]    det = x*y
        # triangular  [[x, z], [0, y]]    det = x*y
        # symmetric   [[x, z], [z, y]]    det = x*y - z^2
        # z = 0 gives the diagonal in both of the last two
        z = 0 if mode_of(x) == EXACT else 0.0
        return Mat2(x, z, z, y)

    def rows(self):
        a11, a12, a21, a22 = self.entries()
        return ((a11, a12), (a21, a22))

    def entries(self):
        d = self._d
        if d is None:
            return (self._n11, self._n12, self._n21, self._n22)
        return (Fraction(self._n11, d), Fraction(self._n12, d),
                Fraction(self._n21, d), Fraction(self._n22, d))

    def __repr__(self) -> str:
        return (f"Mat2(a11={self.a11!r}, a12={self.a12!r}, "
                f"a21={self.a21!r}, a22={self.a22!r})")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Mat2:
            return NotImplemented
        if (self._d is None) != (other._d is None):
            return self.entries() == other.entries()
        return (self._n11 == other._n11 and self._n12 == other._n12
                and self._n21 == other._n21 and self._n22 == other._n22
                and self._d == other._d)

    def __hash__(self) -> int:
        # by value, so an exact matrix hashes like the equal float matrix
        return hash(self.entries())

    def __reduce__(self):
        return _make, (self._d, self._n11, self._n12, self._n21, self._n22)

    def __add__(self, other: "Mat2") -> "Mat2":
        d, e = self._d, other._d
        if d == e:  # one denominator, or two floats
            return _make(d, self._n11 + other._n11, self._n12 + other._n12,
                         self._n21 + other._n21, self._n22 + other._n22)
        _same_mode(d, e)
        return _make(d * e, self._n11 * e + other._n11 * d,
                     self._n12 * e + other._n12 * d,
                     self._n21 * e + other._n21 * d,
                     self._n22 * e + other._n22 * d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        d, e = self._d, other._d
        if d == e:  # one denominator, or two floats
            return _make(d, self._n11 - other._n11, self._n12 - other._n12,
                         self._n21 - other._n21, self._n22 - other._n22)
        _same_mode(d, e)
        return _make(d * e, self._n11 * e - other._n11 * d,
                     self._n12 * e - other._n12 * d,
                     self._n21 * e - other._n21 * d,
                     self._n22 * e - other._n22 * d)

    def __neg__(self) -> "Mat2":
        return _make(self._d, -self._n11, -self._n12, -self._n21, -self._n22)

    def scale(self, s: Scalar) -> "Mat2":
        q = _denominator(s)
        _same_mode(self._d, q)
        if q is None:
            return _make(None, s * self._n11, s * self._n12,
                         s * self._n21, s * self._n22)
        p = s.numerator
        return _make(self._d * q, p * self._n11, p * self._n12,
                     p * self._n21, p * self._n22)

    def det(self) -> Scalar:
        n, d = self._det_num(), self._d
        return n if d is None else Fraction(n, d * d)

    def _det_num(self):
        # det times d^2, so it has the sign of det
        return self._n11 * self._n22 - self._n12 * self._n21

    def frob_sq(self) -> Scalar:
        s = (self._n11 * self._n11 + self._n12 * self._n12
             + self._n21 * self._n21 + self._n22 * self._n22)
        d = self._d
        return s if d is None else Fraction(s, d * d)

    def frob(self) -> Scalar:
        return scalar_sqrt(self.frob_sq())

    def is_zero(self) -> bool:
        return not (self._n11 or self._n12 or self._n21 or self._n22)


def _denominator(s: Scalar):
    """The denominator of an exact scalar, None for a float."""
    return None if mode_of(s) == FLOAT else s.denominator


def _same_mode(d, e):
    """Raise unless both denominators are None (float) or neither is."""
    if (d is None) != (e is None):
        raise MixedModeError("cannot mix exact and float scalars")


def _make(d, n11, n12, n21, n22) -> Mat2:
    """A Mat2 from stored numbers: int numerators over d, or floats with d
    None."""
    m = object.__new__(Mat2)
    m._n11, m._n12, m._n21, m._n22, m._d = n11, n12, n21, n22, d
    m.__post_init__()
    return m


def exact_value(v):
    """v, a Mat2 or a scalar, at its exact value: a float becomes the
    Fraction it equals.  A float that is not finite raises GeometryError."""
    if isinstance(v, Mat2):
        return v if v._d is not None else Mat2(*map(exact_value, v.entries()))
    try:
        return Fraction(v)
    except (OverflowError, ValueError):
        raise GeometryError(f"not a finite number: {v!r}") from None


def int_rows(mats) -> tuple:
    """(D, rows): matrices as int 4-vectors (n11, n12, n21, n22) over D, the
    lcm of their denominators, a float at its exact value; the one builder."""
    mats = [exact_value(m) for m in mats]
    d = lcm(*(m._d for m in mats))
    return d, [(m._n11 * k, m._n12 * k, m._n21 * k, m._n22 * k)
               for m in mats for k in [d // m._d]]


def det(m: Mat2) -> Scalar:
    return m.det()


def det_cross(m: Mat2, n: Mat2) -> Scalar:
    """Bilinear polarization of det: det(M + tN) = det M + t*det_cross + t^2 det N."""
    d, e = m._d, n._d
    _same_mode(d, e)
    s = (m._n11 * n._n22 + n._n11 * m._n22
         - m._n12 * n._n21 - n._n12 * m._n21)
    return s if d is None else Fraction(s, d * e)


def combine(a: Mat2, b: Mat2, t: Scalar) -> Mat2:
    """Convex combination (1-t)*a + t*b."""
    d, e, q = a._d, b._d, _denominator(t)
    _same_mode(d, q)
    _same_mode(e, q)
    if q is None:
        s = 1.0 - t
        return _make(None, s * a._n11 + t * b._n11, s * a._n12 + t * b._n12,
                     s * a._n21 + t * b._n21, s * a._n22 + t * b._n22)
    # with t = p/q: (1 - t) a + t b = ((q - p) e a_n + p d b_n) / (q d e)
    u, v = (q - t.numerator) * e, t.numerator * d
    return _make(q * d * e, u * a._n11 + v * b._n11, u * a._n12 + v * b._n12,
                 u * a._n21 + v * b._n21, u * a._n22 + v * b._n22)


def rank_one_connected(x: Mat2, y: Mat2, tol: Scalar = DEFAULT_TOL) -> bool:
    """rank2x2(x - y, tol) == 1; identical matrices raise GeometryError."""
    if x == y:
        raise GeometryError("identical matrices have rank-0 difference")
    return rank2x2(x - y, tol) == 1


def rank2x2(m: Mat2, tol: Scalar = DEFAULT_TOL) -> int:
    """Rank of a 2x2 matrix, the library's one rank-one rule.  Float: with
    the entries over the largest |entry|, rank 1 iff |ad - bc| <= tol (a^2 +
    b^2 + c^2 + d^2), where no product overflows or underflows to 0."""
    if m.is_zero():
        return 0
    if m.mode == EXACT:
        return 1 if m._det_num() == 0 else 2
    p = max(abs(m._n11), abs(m._n12), abs(m._n21), abs(m._n22))
    a, b, c, d = m._n11 / p, m._n12 / p, m._n21 / p, m._n22 / p
    frob_sq = a * a + b * b + c * c + d * d
    return 1 if abs(a * d - b * c) <= tol * frob_sq else 2


def rank_rows(rows, tol: Scalar = DEFAULT_TOL) -> int:
    """rank2x2's float rule in m x n form, on rows of floats (on a 2x2, the
    same float values): 0 if all zero; else, with p the largest |entry|, in
    row r and column c, 1 iff each residual |e/p - (c_i/p)(r_j/p)| is within
    tol times the sum of the (e/p)^2, and 2 (two or more) if not."""
    r0 = max(rows, key=lambda row: max(map(abs, row)))
    j0 = max(range(len(r0)), key=lambda j: abs(r0[j]))
    p = r0[j0]
    if not p:
        return 0
    qc, qr = [row[j0] / p for row in rows], [r / p for r in r0]
    bound = float(tol) * sum((e / p) * (e / p) for row in rows for e in row)
    return 2 if any(abs(e / p - c * r) > bound
                    for c, v in zip(qc, rows) for e, r in zip(v, qr)) else 1


def crossing_parameter(a: Mat2, a_next: Mat2, b: Mat2) -> Scalar:
    """Parameter t in (0,1) at which det((1-t)a + t*b - a_next) crosses zero.

    Requires a sign change between det(a - a_next) and det(b - a_next).  The
    returned t is the exact root when a and b are rank-one connected (det is
    then linear along the segment), which is the only use made of it here.
    """
    m_a = a - a_next
    m_b = b - a_next
    exact = m_a.mode == EXACT
    # an exact det(m) is m._det_num() / m._d^2: the numerator has its sign
    n_a, n_b = ((m_a._det_num(), m_b._det_num()) if exact
                else (m_a.det(), m_b.det()))
    if n_a == 0:
        raise GeometryError("degenerate pivot pair")
    if n_b == 0 or sign(n_a) == sign(n_b):
        raise GeometryError("no sign change")
    if not exact:
        return n_a / (n_a - n_b)
    u, v = n_a * m_b._d ** 2, n_b * m_a._d ** 2
    t = Fraction(u, u - v)
    if (combine(a, b, t) - a_next)._det_num() != 0:
        raise GeometryError(
            "crossing parameter is not an exact root; "
            "segment endpoints are not rank-one connected")
    return t

