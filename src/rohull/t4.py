"""T4-configuration detection, witness validation, and laminate unrolling.

Take four matrices in a fixed order, A_jk = det(X_j - X_k) and
mu = (a, b, c, d).  Every T4 in that order (base point P, rank-one C_k with
sum 0, every mu_k > 1) solves four equations in mu whose coefficients are
the six A_jk.  The A_jk, the scaffold and the witness check run on the
matrices' int rows over one denominator (core.int_rows), a float at its
exact value, so a decision holds for the exact values of a float input and
a float result is an exact value rounded once.  Each cyclic class is
decided on ints: a sign test rules most classes out, else b is a root of
one of two integer quadratics and c, a and d follow.  Roots are rational or
lie in Q(sqrt disc); each root and each mu_k is held as a pair (numerator,
denominator) of ints, or of Surds with int parts, and the formulas are
written in that homogeneous form, so a Fraction is built only for a mu that
is returned.  Each class is "found" (with a witness), "absent" or
"undecided" (the elimination degenerates).  tools/derive_t4.py derives
these formulas and checks the ones here.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .core import GeometryError, Mat2, _make, exact_value, int_rows, rank2x2
from .scalar import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Scalar,
    Surd,
    quadratic_roots,
    sign,
    to_float,
)

# seeds of the former Newton search, kept for callers; detection reads none
SEED_GRID_1D = tuple(1 + 2 ** j / 8 for j in range(10))


@dataclass(frozen=True)
class T4Witness:
    ordering: tuple[int, int, int, int]
    p: Mat2
    c: tuple[Mat2, Mat2, Mat2, Mat2]
    mu: tuple[Scalar, Scalar, Scalar, Scalar]

    def corners(self) -> tuple[Mat2, Mat2, Mat2, Mat2, Mat2]:
        """Q_0 = P, Q_k = P + C_1 + ... + C_k (Q_4 = P when sum C_i = 0)."""
        q = [self.p]
        for ci in self.c:
            q.append(q[-1] + ci)
        return tuple(q)

    def reconstructed(self) -> tuple[Mat2, Mat2, Mat2, Mat2]:
        """The four configuration points implied by (P, C, mu)."""
        q = self.corners()
        return tuple(q[k] + self.c[k].scale(self.mu[k]) for k in range(4))


@dataclass(frozen=True)
class T4Report:
    eq_residual_sq: tuple[Scalar, Scalar, Scalar, Scalar]
    c_dets: tuple[Scalar, Scalar, Scalar, Scalar]
    c_sum_norm_sq: Scalar
    mu_margin: Scalar
    accepted: bool


def _fraction(n: int, d: int) -> Fraction:
    """n / d; the zeros of a report share one Fraction."""
    return Fraction(n, d) if n else _ZERO


_ZERO = Fraction(0)


def check_t4_witness(x, w: T4Witness, tol: Scalar = 0) -> T4Report:
    """Residual report for a candidate witness against four given matrices.

    X, P and the C_k are int rows over one denominator D, a float at its
    exact value, and with mu_k = m_k / n_k the residual X_k - Q_k - mu_k C_k
    is (n_k X_k - n_k Q_k - m_k C_k) / (n_k D).  An exact witness passes iff
    every residual, every det C_k and sum C_k are zero, no C_k is zero and
    every mu_k > 1.  A float witness passes within tol: each C_k by rank2x2,
    each squared residual and |sum C_k|^2 within tol^2 max |X_k|^2, relative
    at any scale, and every mu_k > 1 + tol, on the exact values, which it
    reports rounded to floats.
    """
    mats, mu = (*x, w.p, *w.c), w.mu
    exact = all(m._d is not None for m in mats) and \
        all(isinstance(m, (int, Fraction)) for m in mu)
    if not exact:
        mu = [exact_value(m) for m in mu]
    d, rows = int_rows(mats)
    q11, q12, q21, q22 = p = rows[4]
    res = []
    for (x11, x12, x21, x22), (c11, c12, c21, c22), mk in zip(
            rows, rows[5:], mu):
        m, n = mk.numerator, mk.denominator
        r11, r12 = n * (x11 - q11) - m * c11, n * (x12 - q12) - m * c12
        r21, r22 = n * (x21 - q21) - m * c21, n * (x22 - q22) - m * c22
        res.append(r11 * r11 + r12 * r12 + r21 * r21 + r22 * r22)
        q11, q12, q21, q22 = q11 + c11, q12 + c12, q21 + c21, q22 + c22
    # Q_4 - P = sum C
    csum = ((q11 - p[0]) ** 2 + (q12 - p[1]) ** 2 + (q21 - p[2]) ** 2
            + (q22 - p[3]) ** 2)
    dets = [c11 * c22 - c12 * c21 for c11, c12, c21, c22 in rows[5:]]
    margin, nonzero, dd = min(mu) - 1, all(map(any, rows[5:])), d * d
    ok = not (any(res) or any(dets) or csum) and margin > 0 and nonzero
    res = tuple(_fraction(r, dd * mk.denominator ** 2)
                for r, mk in zip(res, mu))
    dets, csum = tuple(_fraction(v, dd) for v in dets), _fraction(csum, dd)
    if exact:
        return T4Report(res, dets, csum, margin, ok)
    tol = exact_value(tol)
    bound = tol ** 2 * max(Fraction(sum(e * e for e in r), dd)
                           for r in rows[:4])
    ok = (all(r <= bound for r in res) and csum <= bound and margin > tol
          and all(rank2x2(c, tol) == 1 for c in w.c))
    return T4Report(tuple(map(to_float, res)), tuple(map(to_float, dets)),
                    to_float(csum), to_float(margin), ok)


_PAIRS = tuple(itertools.combinations(range(4), 2))  # the order of A below
_FAULTS = ("points not pairwise distinct", "rank-one connection present")


def _read_pairs(x) -> tuple:
    """(faults, a) of x, in one pass over its pairs: faults maps each pair
    (i, j), in either order, to the precondition it fails, rank2x2(X_i -
    X_j) being 0 or 1.  a maps (j, k) and (k, j) to det(X_j - X_k) D^2, on
    the rows of x over their common denominator D, a float at its exact
    value: one positive factor for all six, which keeps the roots of the
    homogeneous class equations; a is None when a pair fails."""
    _, rows = int_rows(x)
    faults, a = {}, {}
    for j, k in _PAIRS:
        rank = rank2x2(x[j] - x[k], DEFAULT_TOL)
        if rank < 2:
            faults[j, k] = faults[k, j] = _FAULTS[rank]
        (p11, p12, p21, p22), (q11, q12, q21, q22) = rows[j], rows[k]
        a[j, k] = a[k, j] = ((p11 - q11) * (p22 - q22)
                             - (p12 - q12) * (p21 - q21))
    return faults, None if faults else a


def _equations(a, mu) -> tuple:
    """The class equations at a = (A01, A02, A03, A12, A13, A23) and mu_k =
    m_k / n_k, mu given as the pairs (m_k, n_k), each equation times the
    n_k that clear its denominators.  With s and u the polarized dets of
    (C_0, C_1) and (C_1, C_2) and n = mu - 1, A01 = -n0 b s, A23 = -n2 d s,
    A12 = -n1 c u, A03 = -n3 a u, A02 = n0 n2 s + a c u and
    A13 = n1 n3 u + b d s; eliminate s and u."""
    a01, a02, a03, a12, a13, a23 = a
    (m0, n0), (m1, n1), (m2, n2), (m3, n3) = mu
    # e_k = (mu_k - 1) n_k
    e0, e1, e2, e3 = m0 - n0, m1 - n1, m2 - n2, m3 - n3
    return (a23 * e0 * m1 * n2 * n3 - a01 * e2 * m3 * n0 * n1,
            a03 * e1 * m2 * n0 * n3 - a12 * e3 * m0 * n1 * n2,
            a02 * m1 * e1 * n0 * n2 + (a01 * e2 * e1 * n0
                                       + a12 * m0 * m1 * n2) * n1,
            a13 * m2 * e0 * n3 + a12 * e3 * e0 * n2 + a01 * m2 * m3 * n0)


def _b_quadratics(a01, a02, a03, a12, a13, a23) -> tuple:
    """Coefficients (b^2, b, 1) of q2 and q1: eliminating a and d, then c,
    leaves b^2 q1(b) q2(b) times a monomial in A."""
    s1 = a01 + a02 - a12
    x, y, z = a01 * a23, a02 * a13, a03 * a12
    k = (x - y - z) ** 2 - 4 * y * z
    l = ((a01 * (a12 - a23) + a13 * (a02 - a12))
         * (a23 * (a01 - a12) + a02 * (a12 - a13))
         - a03 * a12 * s1 * (a12 - a13 - a23))
    return ((a02 * a23, -a23 * s1, -a01 * (a12 - a23)),
            (a02 * k, -s1 * k, -a01 * l))


def _c_quadratics(a01, a02, a03, a12, a13, a23, p, q) -> tuple:
    """Coefficients (c^2, c, 1) of equations 2 and 4 at mu_1 = b = p / q,
    with a from equation 3 and d from equation 1, once b - 1 and a - 1 are
    divided out.  They are cleared of q: the first times (q, q^2, q^3), the
    second times (1, 1, q^2)."""
    e, m0, k0 = p - q, a02 * p - a01 * q, a23 * p - a01 * q
    return ((a01 * (a01 * (a23 * e + a12 * q) - a03 * a12 * p),
             a01 * (2 * a23 * e * m0 + q * (a12 * (m0 + k0) + a03 * a12 * p)),
             m0 * (a23 * e * m0 + q * a12 * k0)),
            (-a01 * a13, a01 * (a12 + a13 - a23),
             a02 * a23 * p * p - a23 * (a01 + a02 - a12) * p * q
             - a01 * (a12 - a23) * q * q))


def _class_solutions(a) -> tuple:
    """(solutions, complete): the mu > 1 solving the class equations at a,
    six nonzero ints, and whether that is all of them.  It may not be when
    q1 vanishes, or when the quadratics in c agree at an irrational b.
    Each mu_k is a pair (m_k, n_k), mu_k = m_k / n_k, until it is returned:
    ints, or Surds with int parts once a root is irrational.  Surd has no
    reflected subtraction, so in every difference here, in _equations and
    in _c_quadratics, the left operand is a Surd whenever the right one
    is."""
    a01, a02, a03, a12, a13, a23 = a
    # mu > 1 fixes the sign of each term of equations 1 and 2, and of the
    # A01 and A12 terms of equations 3 and 4
    s01, s12 = sign(a01), sign(a12)
    if s01 != sign(a23) or s12 != sign(a03) or (
            s01 == s12 and not sign(a02) == sign(a13) == -s01):
        return [], True
    q2, q1 = _b_quadratics(*a)
    complete, solutions = any(q1), []
    # q1 has degree 2 unless K = 0; then it is a constant.  A root of both
    # is taken once: q2 at a root of q1, in homogeneous form on that root
    roots = quadratic_roots(*q2) + [
        (p, q) for p, q in (quadratic_roots(*q1) if q1[0] else [])
        if p * (q2[0] * p + q2[1] * q) + q2[2] * q * q != 0]
    for p, q in roots:
        if not (p - q) * q > 0:  # b = p / q > 1
            continue
        (f0, f1, f2), (g0, g1, g2) = _c_quadratics(*a, p, q)
        # g0 f - f0 g is linear in c: q^2 (g0 f - f0 g) = lin1 c + lin0 / q,
        # and g0 = -A01 A13 is not 0
        lin1, lin0 = g0 * f1 - q * f0 * g1, g0 * f2 - f0 * g2
        if lin1 == 0 and isinstance(p, Surd):
            # the quadratics share both roots or none, and c would need a
            # second square root
            complete = complete and lin0 != 0
            continue
        for r, s in ([(-lin0, q * lin1)] if lin1 != 0 else
                     [] if lin0 != 0 else
                     quadratic_roots(g0 * q * q, g1 * q * q, g2)):
            if not (r - s) * s > 0:  # c = r / s > 1
                continue
            m0 = -(p - q) * (a02 * p * s + a01 * (r - s) * q)
            n0 = a12 * p * q * s
            m3, n3 = a23 * (m0 - n0) * p * s, n0 * q * a01 * (r - s)
            mu = ((m0, n0), (p, q), (r, s), (m3, n3))
            # b, c > 1 already; mu > 1 makes D = prod mu - prod (mu - 1)
            # positive
            if (m0 - n0) * n0 > 0 and (m3 - n3) * n3 > 0 and \
                    all(e == 0 for e in _equations(a, mu)):
                solutions.append(tuple(
                    m / n if isinstance(m, Surd) else Fraction(m, n)
                    for m, n in mu))
    return solutions, complete


def _scaffold(x, mu):
    """(Q, C), the corners Q_0..Q_3 and the C_k, with X_k = Q_k + mu_k C_k,
    Q_0 = P, Q_{k+1} = Q_k + C_k and sum C = 0; or None when D = prod mu -
    prod (mu - 1) is 0.  Closing the cycle gives P = sum w_k X_k with w_k =
    prod_{j<k} mu_j prod_{j>k} (mu_j - 1) / D; walking the corners gives
    C_k = (X_k - Q_k) / mu_k.

    It runs on ints, a float in x or mu at its exact value: the X_k are rows
    over their lcm denominator d, mu_k = m_k / n_k, and every corner Q_k,
    the P of the rotated cycle, is a row over |D| n_0 n_1 n_2 n_3 d.  So the
    walk Q_{k+1} = ((mu_k - 1) Q_k + X_k) / mu_k divides the int rows
    exactly by m_k, and C_k = Q_{k+1} - Q_k.  When x or mu holds a float,
    the Q_k and C_k are rounded once to floats."""
    rounded = any(m._d is None for m in x) or \
        any(isinstance(v, float) for v in mu)
    if rounded:
        mu = [exact_value(v) for v in mu]
    m = [v.numerator for v in mu]
    n = [v.denominator for v in mu]
    e = [mk - nk for mk, nk in zip(m, n)]
    # D n_0 n_1 n_2 n_3, with e_k = (mu_k - 1) n_k
    dn = m[0] * m[1] * m[2] * m[3] - e[0] * e[1] * e[2] * e[3]
    if dn == 0:
        return None
    w = (n[0] * e[1] * e[2] * e[3], m[0] * n[1] * e[2] * e[3],
         m[0] * m[1] * n[2] * e[3], m[0] * m[1] * m[2] * n[3])
    if dn < 0:
        dn, w = -dn, [-wk for wk in w]
    d, rows = int_rows(x)
    q = [sum(wk * r[i] for wk, r in zip(w, rows)) for i in range(4)]
    corners, c = [], []
    for r, mk, nk, ek in zip(rows, m, n, e):
        step = [(ek * qi + nk * dn * ri) // mk for qi, ri in zip(q, r)]
        corners.append(_make(dn * d, *q))
        c.append(_make(dn * d, *(si - qi for si, qi in zip(step, q))))
        q = step
    if rounded:  # OverflowError past the float range
        return tuple(tuple(Mat2(*map(float, m.entries())) for m in ms)
                     for ms in (corners, c))
    return tuple(corners), tuple(c)


def _decide_class(x, a, perm, tol):
    """(outcome, status) of x in the order perm, a from _read_pairs(x):
    the failure reason, or the witnesses of the four rotations of perm,
    rotation r starting at the corner Q_r with C and mu rotated by r; and
    "found", "absent" or "undecided".  Only rotation 0 is certified.  The
    smallest mu is taken.  The scaffold is built on it, a surd rounded to a
    float; a rational mu on exact x gives exact witnesses, any other float
    ones, each corner the exact one rounded once."""
    solutions, complete = _class_solutions(
        tuple(a[perm[j], perm[k]] for j, k in _PAIRS))
    if not solutions:
        return "no T4 in this class", "absent" if complete else "undecided"
    try:
        mu, at = min(((m, tuple(float(v) if isinstance(v, Surd) else v
                                for v in m)) for m in solutions),
                     key=lambda pair: pair[1])
        built = _scaffold([x[i] for i in perm], at)
        if built and built[0][0].mode == FLOAT:
            mu = tuple(map(float, at))
    except OverflowError:
        return "witness beyond the float range", "undecided"
    if built:
        q, c = built
        turns = tuple(T4Witness(_rotate(perm, r), q[r], _rotate(c, r),
                                _rotate(mu, r)) for r in range(4))
        if witness_certified(x, turns[0], tol):
            return turns, "found"
    return "witness failed its check", "undecided"


def _precondition(faults: dict, perm) -> str | None:
    """The failure reason of x taken in the order perm: that of its first
    faulty pair, pairs taken in the order of their positions in perm."""
    return next((faults[pair] for pair in itertools.combinations(perm, 2)
                 if pair in faults), None)


def solve_t4_ordering(x, seeds=None, tol: float = 1e-9):
    """(witness, reason) for one fixed ordering of four matrices, the
    one-class case of detect_t4; witness is None when a precondition fails
    or no certified witness exists.  ``seeds`` is accepted and ignored."""
    faults, a = _read_pairs(x)
    reason = _precondition(faults, range(4))
    if reason:
        return None, reason
    found, _ = _decide_class(x, a, (0, 1, 2, 3), tol)
    return (None, found) if isinstance(found, str) else (found[0], "ok")


def witness_certified(x, w: T4Witness, tol: float = 1e-9) -> bool:
    """Whether w passes check_t4_witness on x taken in w's ordering, at the
    tolerance detection accepts a witness at: 0 for an exact witness,
    max(sqrt(tol), 1e-6) for a float one."""
    ordered = [x[i] for i in w.ordering]
    check_tol = 0 if w.p.mode == EXACT else max(float(tol) ** 0.5, 1e-6)
    return check_t4_witness(ordered, w, check_tol).accepted


def _rotate(seq, r: int) -> tuple:
    return tuple(seq[r:]) + tuple(seq[:r])


def cyclic_class(ordering) -> tuple:
    """Canonical representative of the cyclic rotation class of an ordering."""
    return min(_rotate(ordering, r) for r in range(4))


@dataclass(frozen=True)
class Detection:
    witnesses: tuple[T4Witness, ...]
    failures: dict
    # "found", "absent" or "undecided" per decided ordering: the class
    # representatives past the preconditions, and rotations decided alone
    status: dict = field(default_factory=dict, compare=False)

    def found(self) -> bool:
        return bool(self.witnesses)


def detect_t4(x, tol: float = 1e-9, seeds=None) -> Detection:
    """Witnesses for all 24 orderings; ``seeds`` is accepted and ignored.

    The four rotations of an ordering read one scaffold from different
    corners, so only the six class representatives, which start with 0, are
    decided.  Rotation r of a witness starts at the corner Q_r of the
    scaffold with C and mu rotated by r; it is re-checked with
    witness_certified, and decided on its own if it fails.  The
    preconditions are checked once, on the pairs of x, so a failure reason
    holds for a whole class.  Witnesses come in itertools.permutations
    order.
    """
    faults, a = _read_pairs(x)
    found, status, outcome = {}, {}, {}
    for rep in [(0,) + tail for tail in itertools.permutations(range(1, 4))]:
        found[rep] = _precondition(faults, rep)
        if found[rep] is None:
            found[rep], status[rep] = _decide_class(x, a, rep, tol)
    for rep, turns in found.items():
        if isinstance(turns, str):
            outcome.update((_rotate(rep, r), turns) for r in range(4))
            continue
        outcome[rep] = turns[0]
        for w in turns[1:]:
            if witness_certified(x, w, tol):
                outcome[w.ordering] = w
            else:
                got, status[w.ordering] = _decide_class(x, a, w.ordering, tol)
                outcome[w.ordering] = got if isinstance(got, str) else got[0]
    perms = list(itertools.permutations(range(4)))
    return Detection(
        tuple(outcome[p] for p in perms if not isinstance(outcome[p], str)),
        {p: outcome[p] for p in perms if isinstance(outcome[p], str)},
        status)


# --- laminate measures ---------------------------------------------------


@dataclass(frozen=True)
class DiscreteLaminate:
    atoms: tuple  # ((Mat2, weight), ...)
    barycenter: Mat2
    off_support_mass: Scalar


def laminate_unroll(x, w: T4Witness, target_corner: int,
                    rounds: int) -> DiscreteLaminate:
    """Unit mass at a corner, split backwards through the cyclic scaffold.

    Each split replaces the unique off-support atom Q_k with
    (1/mu_k) X_k + (1 - 1/mu_k) Q_{k-1}; the split direction is the rank-one
    increment C_k and the mean is preserved exactly.  ``x`` must be in the
    witness's order: ``x[k]`` is its X_k.

    A round splits at X_{c-1}, .., X_{c-4} (indices mod 4, c the target
    corner) and leaves rho = prod(1 - 1/mu_k) of the mass at the corner, so
    after ``rounds`` rounds the split at X_i holds (mass before it) / mu_i
    times 1 + rho + .. + rho^(rounds-1), and the corner holds rho^rounds.
    """
    if not 0 <= target_corner <= 3:
        raise GeometryError("target_corner must be in 0..3")
    if rounds < 0:
        raise GeometryError("rounds must be nonnegative")
    exact = x[0].mode == EXACT
    report = check_t4_witness(x, w, 0 if exact else DEFAULT_TOL)
    if not report.accepted:
        raise GeometryError("invalid T4 witness")
    one = Fraction(1) if exact else 1.0
    target = w.corners()[target_corner]
    first = {}  # the mass the first round puts on each X_i
    rho = one
    for j in range(1, 5):
        i = (target_corner - j) % 4
        first[i] = rho / w.mu[i]
        rho = rho * (one - one / w.mu[i])
    off_mass = rho ** rounds
    series = (one - off_mass) / (one - rho)
    atoms = [(x[i], first[i] * series) for i in sorted(first) if rounds]
    atoms.append((target, off_mass))
    bary = None
    for m, wt in atoms:
        term = m.scale(wt)
        bary = term if bary is None else bary + term
    if exact and bary != target:
        raise GeometryError("barycenter drifted during unrolling")
    return DiscreteLaminate(tuple(atoms), bary, off_mass)
