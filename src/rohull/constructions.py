"""Generators and verifiers for the four explicit counterexample families.

Every generator re-checks its own certificates (rank-one connections, zero
determinants, sign conditions) as it runs, and raises on the first failure.
Points are ``Mat2``: the staircase is diagonal, the spirals run in the
upper-triangular and the symmetric subspace (see ``Mat2.diag``), and each
spiral checks that every iterate it returns lies in its subspace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    GeometryError,
    Mat2,
    _make,
    combine,
    crossing_parameter,
    rank2x2,
)
from .hulls import (
    LaminateSet,
    RankOneSegment,
    point_segment_dist_sq,
)
from .scalar import EXACT, Scalar, mode_of, scalar_sqrt, sign
from .t4 import T4Witness, check_t4_witness


class ConstructionError(GeometryError):
    """A construction certificate failed."""


class InputError(ConstructionError):
    """A construction's parameters are out of range; raised before anything
    is computed."""


# --- staircase (diagonal plane) ------------------------------------------


@dataclass(frozen=True)
class StaircaseConfig:
    n_max: int
    perturbation_index: int  # the N of the perturbed point P_N

    def __post_init__(self):
        if not self.n_max >= self.perturbation_index >= 1:
            raise InputError("need n_max >= N >= 1")


def _staircase_pair(n: int) -> tuple[Mat2, Mat2]:
    # with h = 1/d, d = 2^(n+1): diag(1 - 3h, h) and diag(1 - 2h, 3h)
    d = 2 ** (n + 1)
    return (_make(d, d - 3, 0, 0, 1), _make(d, d - 2, 0, 0, 3))


def staircase_perturbation(n: int) -> Mat2:
    d = 2 ** (n + 1)
    return _make(d, d - 1, 0, 0, 1)  # diag(1 - h, h)


def staircase_points(cfg: StaircaseConfig) -> LaminateSet:
    """The truncated staircase set, with its no-rank-one-connections check:
    no two points share an a11 or an a22, compared as int numerators over
    the points' common denominator."""
    pts = [Mat2.diag(1, 0)]
    for n in range(cfg.n_max + 1):
        pts.extend(_staircase_pair(n))
    k = LaminateSet(points=tuple(pts), order=0)
    # the set's core.int_rows, which its distance queries then reuse
    _, rows, _, _ = k._rows
    if (len({r[0] for r in rows}) != len(rows)
            or len({r[3] for r in rows}) != len(rows)):
        raise ConstructionError("staircase points share a coordinate")
    return k


def staircase_iterate(cfg: StaircaseConfig) -> list[Mat2]:
    """Midpoint chain from the perturbed point down to (0, 1).

    Each combination joins two points sharing a coordinate (a rank-one
    connection in the diagonal embedding); the chain alternates between the
    two staircase families exactly as in the inductive descent.
    """
    n = cfg.perturbation_index
    current = staircase_perturbation(n)  # P_N
    chain = [current]
    for m in range(n, -1, -1):
        low, high = _staircase_pair(m)
        # the shared coordinates, compared as stored ints cross-multiplied
        if low._n22 * current._d != current._n22 * low._d:
            raise ConstructionError("horizontal step is not rank-one")
        mid = combine(current, low, Fraction(1, 2))
        chain.append(mid)
        if high._n11 * mid._d != mid._n11 * high._d:
            raise ConstructionError("vertical step is not rank-one")
        current = combine(mid, high, Fraction(1, 2))  # P_{m-1}
        chain.append(current)
    if current != Mat2.diag(0, 1):
        raise ConstructionError("chain did not terminate at (0, 1)")
    return chain


# --- upper-triangular spiral ---------------------------------------------


@dataclass(frozen=True)
class TriSpiralConfig:
    x1: Scalar
    x2: Scalar
    y1: Scalar
    y2: Scalar
    z0: Scalar
    alpha: tuple[Scalar, Scalar, Scalar, Scalar]

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y2 < self.y1 and self.z0 > 0
                and all(a > 0 for a in self.alpha)):
            raise InputError(
                "need x1 < x2, y2 < y1, z0 > 0 and all alpha > 0")

    @classmethod
    def standard_square(cls) -> "TriSpiralConfig":
        """Unit-square corners with symmetric outriggers; all lambda = 1/2."""
        return cls(Fraction(-1), Fraction(1), Fraction(1), Fraction(-1),
                   Fraction(1), (Fraction(2),) * 4)

    def corners(self) -> tuple[Mat2, Mat2, Mat2, Mat2]:
        return (Mat2.diag(self.x1, self.y2), Mat2.diag(self.x1, self.y1),
                Mat2.diag(self.x2, self.y1), Mat2.diag(self.x2, self.y2))

    def anchors(self) -> tuple[Mat2, Mat2, Mat2, Mat2]:
        a0, a1, a2, a3 = self.alpha
        return (Mat2.diag(self.x1, self.y1 + a0),
                Mat2.diag(self.x2 + a1, self.y1),
                Mat2.diag(self.x2, self.y2 - a2),
                Mat2.diag(self.x1 - a3, self.y2))

    def lambdas(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        p, a = self.corners(), self.anchors()
        lams = []
        for i in range(4):
            lam = crossing_parameter(a[i], a[(i + 1) % 4], p[i])
            if not 0 < lam < 1:
                raise ConstructionError("configuration not spiral-admissible")
            lams.append(lam)
        return tuple(lams)


def tri_spiral(cfg: TriSpiralConfig, n_steps: int) -> list[Mat2]:
    """Iterates spiralling down to the first corner of the inner rectangle.

    Each step certifies its rank-one connection, rank2x2(X_i - A_i) < 2, and
    is cross-checked against X_{i+1} = P_{(i+1) mod 4} + (0,0,z_{i+1}),
    where the running product z_{i+1} = z_i lambda_{i mod 4} starts at z0.
    """
    corners = cfg.corners()
    anchors = cfg.anchors()
    lams = cfg.lambdas()
    exact = mode_of(cfg.z0) == EXACT
    zero = 0 * cfg.z0
    z = cfg.z0
    x = corners[0] + Mat2(zero, z, zero, zero)
    out = [x]
    for i in range(n_steps):
        k = i % 4
        if rank2x2(x - anchors[k]) == 2:
            raise ConstructionError("iterate lost its rank-one connection")
        x = combine(anchors[k], x, lams[k])
        out.append(x)
        z = z * lams[k]
        expected = corners[(k + 1) % 4] + Mat2(zero, z, zero, zero)
        if exact:
            if x != expected:
                raise ConstructionError("closed form disagrees with recursion")
        elif (x - expected).frob_sq() > 1e-20 * x.frob_sq():
            raise ConstructionError("closed form disagrees with recursion")
    if any(m._n21 != 0 for m in out):
        raise ConstructionError("iterate left the upper-triangular subspace")
    return out


# --- symmetric spiral ----------------------------------------------------


@dataclass(frozen=True)
class SymSpiralConfig:
    x1: float
    x2: float
    y1: float
    y2: float
    alpha: tuple[float, float, float, float]
    xi3: float

    def __post_init__(self):
        vals = (self.x1, self.x2, self.y1, self.y2, *self.alpha, self.xi3)
        if any(mode_of(v) != "float" for v in vals):
            raise InputError("symmetric spiral requires float mode "
                             "(square roots appear in xi1)")
        if not (self.x1 < self.x2 and self.y2 < self.y1
                and all(a > 0 for a in self.alpha) and self.xi3 > 0):
            raise InputError("need x1 < x2, y2 < y1, alpha > 0, xi3 > 0")
        if self.alpha[3] ** 2 < 4 * self.alpha[3] * self.xi3 ** 2 / self.span:
            raise InputError("xi3 too large (xi1 is not real)")

    @classmethod
    def standard_square(cls, xi3: float) -> "SymSpiralConfig":
        return cls(-1.0, 1.0, 1.0, -1.0, (2.0, 2.0, 2.0, 2.0), xi3)

    def tri_config(self) -> TriSpiralConfig:
        # same diagonal data; z0 is irrelevant for the lambda values
        return TriSpiralConfig(self.x1, self.x2, self.y1, self.y2, 1.0,
                               self.alpha)

    @property
    def span(self) -> float:
        return self.y1 + self.alpha[0] - self.y2

    def offsets(self) -> tuple[float, float, float]:
        """The in-plane offsets forced by the two zero-determinant conditions
        at the start corner (positive square-root branch), and xi3."""
        xi1, _ = _start_roots(self, self.xi3)
        return xi1, -xi1 * self.span / self.alpha[3], self.xi3


def _start_roots(cfg: SymSpiralConfig, z: float) -> tuple[float, float]:
    """The positive and the negative root xi1 of the start-offset quadratic
    xi1^2 + alpha_3 xi1 + alpha_3 z^2 / span = 0."""
    a3 = cfg.alpha[3]
    root = math.sqrt(max(a3 ** 2 - 4 * a3 * z ** 2 / cfg.span, 0.0))
    return 0.5 * (-a3 + root), 0.5 * (-a3 - root)


@dataclass(frozen=True)
class SymCycle:
    t: tuple[float, float, float, float]
    det_residual_rel: tuple[float, float, float, float]
    eta: tuple[float, float, float]
    ratio: float
    branch_error: float


@dataclass(frozen=True)
class SymSpiralResult:
    iterates: tuple[Mat2, ...]
    cycles: tuple[SymCycle, ...]
    lambda_product: float
    contraction_bound: float


def sym_spiral(cfg: SymSpiralConfig, n_iters: int) -> SymSpiralResult:
    """Iterated quarter-step chase around the rectangle in the symmetric space.

    Every cycle revalidates the sign preconditions, the positive branch of the
    end-of-cycle offset equations, and the z-contraction bound; failures abort
    with the name of the exceeded smallness bound.
    """
    # the upper-triangular corners and anchors have z = 0: they are
    # diagonal, so they lie in the symmetric subspace too
    tri = cfg.tri_config()
    anchors = tri.anchors()
    lams = tri.lambdas()
    lam_prod = lams[0] * lams[1] * lams[2] * lams[3]
    bound = 0.5 * (1.0 + lam_prod)
    p0 = tri.corners()[0]

    xi1, xi2, xi3 = cfg.offsets()
    y = p0 + Mat2(xi1, xi3, xi3, xi2)
    if any(rank2x2(y - anchors[k], 1e-9) == 2 for k in (0, 3)):
        raise ConstructionError("start point lost its determinant zeros")
    iterates = [y]
    cycles = []
    for cycle in range(1, n_iters + 1):
        b = y
        ts = []
        residuals = []
        for i in range(4):
            a_i = anchors[i]
            a_next = anchors[(i + 1) % 4]
            d_edge = (a_i - a_next).det()
            d_b = (b - a_next).det()
            if d_b == 0 or sign(d_b) == sign(d_edge):
                raise ConstructionError("xi3 too large (epsilon_1 exceeded)")
            t = crossing_parameter(a_i, a_next, b)
            b = combine(a_i, b, t)
            diff = b - a_next
            residuals.append(abs(diff.det()) / max(1e-300, diff.frob_sq()))
            if rank2x2(diff, 1e-8) == 2:
                raise ConstructionError("quarter step lost its rank-one target")
            ts.append(t)
        eta = b - p0
        eta1, eta2, eta3 = eta.a11, eta.a22, eta.a12
        if eta3 == 0:
            raise ConstructionError(
                f"z underflowed to 0 in cycle {cycle}; use fewer iterations")
        t_prod = ts[0] * ts[1] * ts[2] * ts[3]
        if not t_prod < bound:
            raise ConstructionError("xi3 too large (epsilon_2 exceeded)")
        pos1, neg1 = _start_roots(cfg, eta3)
        if abs(eta1 - pos1) >= abs(eta1 - neg1):
            raise ConstructionError("xi3 too large (epsilon_3 exceeded)")
        ratio = eta3 / xi3
        if not ratio < bound:
            raise ConstructionError("xi3 too large (epsilon_2 exceeded)")
        cycles.append(SymCycle(tuple(ts), tuple(residuals),
                               (eta1, eta2, eta3), ratio, abs(eta1 - pos1)))
        y = b
        xi3 = eta3
        iterates.append(y)
    if any(m.a12 != m.a21 for m in iterates):
        raise ConstructionError("iterate left the symmetric subspace")
    return SymSpiralResult(tuple(iterates), tuple(cycles), lam_prod, bound)


# --- five-point T4 set ----------------------------------------------------


@dataclass(frozen=True)
class FivePointConfig:
    epsilon: Fraction
    x: tuple[Mat2, Mat2, Mat2, Mat2]
    mu: tuple[Fraction, Fraction, Fraction, Fraction]
    p: tuple[Mat2, Mat2, Mat2, Mat2]
    c: tuple[Mat2, Mat2, Mat2, Mat2]

    @property
    def k(self) -> tuple[Mat2, ...]:
        return (Mat2.zero(),) + self.x

    def witness(self) -> T4Witness:
        return T4Witness((0, 1, 2, 3), self.p[0], self.c, self.mu)

    def hull(self) -> LaminateSet:
        segs = tuple(RankOneSegment(Mat2.zero(), xi, 1) for xi in self.x)
        return LaminateSet(points=self.k, segments=segs, order=1)


def five_point_build(epsilon: Scalar) -> FivePointConfig:
    """The 5-point set whose lamination hull misses a corner of its T4 scaffold."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise InputError("epsilon must lie in (0, 1)")
    x1 = Mat2(1, 0, 0, 0)
    x2 = Mat2(0, 0, 0, 1)
    x3 = Mat2(-eps, -1, -eps * eps, -eps)
    x4 = Mat2(-eps, eps * eps, 1, -eps)
    x = (x1, x2, x3, x4)

    mu1 = (1 + 2 * eps) / (eps * (1 - eps * eps))
    mu2 = 1 + eps * eps * mu1
    mu3 = 1 + ((1 + eps * eps) / eps) * mu2
    mu4 = 1 + eps * eps * mu3
    mu = (mu1, mu2, mu3, mu4)
    if mu1 != 1 + mu4 / (eps * (1 + eps * eps)):
        raise ConstructionError("mu cascade consistency identity failed")
    if not all(m > 1 for m in mu):
        raise ConstructionError("mu values must exceed 1")

    p1 = Mat2(-eps, 0, 1, 0).scale(1 / (eps * (mu1 - 1)))
    p2 = Mat2(0, 0, 1, 0).scale(1 / (mu1 * eps))
    p3 = Mat2(0, 0, eps, 1).scale(1 / mu2)
    p4 = Mat2(-eps * eps, -eps, eps, 1).scale(1 / (mu3 * eps))
    p = (p1, p2, p3, p4)
    c = tuple(p[(i + 1) % 4] - p[i] for i in range(4))

    for ci in c:
        if ci.is_zero() or ci.det() != 0:
            raise ConstructionError("increment is not rank-one")
    if not (c[0] + c[1] + c[2] + c[3]).is_zero():
        raise ConstructionError("increments do not telescope to zero")
    w = T4Witness((0, 1, 2, 3), p1, c, mu)
    if not check_t4_witness(x, w, 0).accepted:
        raise ConstructionError("T4 witness equations failed")
    for xi in x:
        if xi.det() != 0:
            raise ConstructionError("configuration point has nonzero det")
    for i in range(4):
        for j in range(i + 1, 4):
            if (x[i] - x[j]).det() == 0:
                raise ConstructionError("configuration points are rank-one connected")
    return FivePointConfig(eps, x, mu, p, c)


def five_point_gap_sq(cfg: FivePointConfig) -> Fraction:
    """Exact squared distance from the hull-excluded corner to the hull."""
    zero = Mat2.zero()
    return min(point_segment_dist_sq(cfg.p[0], zero, xi) for xi in cfg.x)


def five_point_gap(cfg: FivePointConfig) -> Scalar:
    return scalar_sqrt(five_point_gap_sq(cfg))
