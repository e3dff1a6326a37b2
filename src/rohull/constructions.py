"""Generators and verifiers for the four explicit counterexample families.

Every generator re-checks its own certificates (rank-one connections, zero
determinants, sign conditions) as it runs, and raises on the first failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DiagPt,
    GeometryError,
    Mat2,
    SymPt,
    TriPt,
    combine,
    crossing_parameter,
    project_sym,
    project_tri,
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


def _staircase_pair(n: int) -> tuple[DiagPt, DiagPt]:
    h = Fraction(1, 2 ** (n + 1))
    return (DiagPt(1 - 3 * h, h), DiagPt(1 - 2 * h, 3 * h))


def staircase_perturbation(n: int) -> DiagPt:
    h = Fraction(1, 2 ** (n + 1))
    return DiagPt(1 - h, h)


def staircase_points(cfg: StaircaseConfig) -> LaminateSet:
    """The truncated staircase set, with its no-rank-one-connections check."""
    pts: list[DiagPt] = [DiagPt(1, 0)]
    for n in range(cfg.n_max + 1):
        pts.extend(_staircase_pair(n))
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ConstructionError("staircase points share a coordinate")
    return LaminateSet(points=tuple(p.embed() for p in pts), order=0)


def staircase_iterate(cfg: StaircaseConfig) -> list[DiagPt]:
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
        if low.y != current.y:
            raise ConstructionError("horizontal step is not rank-one")
        mid = DiagPt((low.x + current.x) / 2, current.y)
        chain.append(mid)
        if high.x != mid.x:
            raise ConstructionError("vertical step is not rank-one")
        current = DiagPt(mid.x, (mid.y + high.y) / 2)  # P_{m-1}
        chain.append(current)
    if current != DiagPt(0, 1):
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

    def corners(self) -> tuple[TriPt, TriPt, TriPt, TriPt]:
        zero = Fraction(0) if mode_of(self.x1) == EXACT else 0.0
        return (TriPt(self.x1, self.y2, zero), TriPt(self.x1, self.y1, zero),
                TriPt(self.x2, self.y1, zero), TriPt(self.x2, self.y2, zero))

    def anchors(self) -> tuple[TriPt, TriPt, TriPt, TriPt]:
        zero = Fraction(0) if mode_of(self.x1) == EXACT else 0.0
        a0, a1, a2, a3 = self.alpha
        return (TriPt(self.x1, self.y1 + a0, zero),
                TriPt(self.x2 + a1, self.y1, zero),
                TriPt(self.x2, self.y2 - a2, zero),
                TriPt(self.x1 - a3, self.y2, zero))

    def lambdas(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        p = [c.embed() for c in self.corners()]
        a = [c.embed() for c in self.anchors()]
        lams = []
        for i in range(4):
            lam = crossing_parameter(a[i], a[(i + 1) % 4], p[i])
            if not 0 < lam < 1:
                raise ConstructionError("configuration not spiral-admissible")
            lams.append(lam)
        return tuple(lams)


def tri_spiral(cfg: TriSpiralConfig, n_steps: int) -> list[TriPt]:
    """Iterates spiralling down to the first corner of the inner rectangle.

    Each step certifies the enabling rank-one connection det(X_i - A_i) = 0
    and is cross-checked against X_{i+1} = P_{(i+1) mod 4} + (0,0,z_{i+1}),
    where the running product z_{i+1} = z_i lambda_{i mod 4} starts at z0.
    """
    corners = [c.embed() for c in cfg.corners()]
    anchors = [c.embed() for c in cfg.anchors()]
    lams = cfg.lambdas()
    exact = mode_of(cfg.z0) == EXACT
    zero = 0 * cfg.z0
    z = cfg.z0
    x = corners[0] + TriPt(zero, zero, z).embed()
    out = [x]
    for i in range(n_steps):
        k = i % 4
        d = (x - anchors[k]).det()
        bad = (d != 0) if exact else abs(d) > 1e-10
        if bad:
            raise ConstructionError("iterate lost its rank-one connection")
        x = combine(anchors[k], x, lams[k])
        out.append(x)
        z = z * lams[k]
        expected = corners[(k + 1) % 4] + Mat2(zero, z, zero, zero)
        if exact:
            if x != expected:
                raise ConstructionError("closed form disagrees with recursion")
        elif (x - expected).frob_sq() > 1e-20 * max(1.0, x.frob_sq()):
            raise ConstructionError("closed form disagrees with recursion")
    return [project_tri(m) for m in out]


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
        span = self.y1 + self.alpha[0] - self.y2
        if self.alpha[3] ** 2 < 4 * self.alpha[3] * self.xi3 ** 2 / span:
            raise InputError("xi3 too large (xi1 is not real)")

    @classmethod
    def standard_square(cls, xi3: float) -> "SymSpiralConfig":
        return cls(-1.0, 1.0, 1.0, -1.0, (2.0, 2.0, 2.0, 2.0), xi3)

    def tri_config(self) -> TriSpiralConfig:
        # same diagonal data; z0 is irrelevant for the lambda values
        return TriSpiralConfig(self.x1, self.x2, self.y1, self.y2, 1.0,
                               self.alpha)

    def offsets(self) -> tuple[float, float, float]:
        return _branch_offsets(self.alpha, self.y1, self.y2, self.xi3) + (self.xi3,)


def _branch_offsets(alpha, y1, y2, z_off) -> tuple[float, float]:
    """The in-plane offsets forced by the two zero-determinant conditions
    at the start corner (positive square-root branch)."""
    span = y1 + alpha[0] - y2
    disc = alpha[3] ** 2 - 4 * alpha[3] * z_off ** 2 / span
    xi1 = 0.5 * (-alpha[3] + math.sqrt(max(disc, 0.0)))
    xi2 = -xi1 * span / alpha[3]
    return xi1, xi2


@dataclass(frozen=True)
class SymCycle:
    t: tuple[float, float, float, float]
    det_residual_rel: tuple[float, float, float, float]
    eta: tuple[float, float, float]
    ratio: float
    branch_error: float


@dataclass(frozen=True)
class SymSpiralResult:
    iterates: tuple[SymPt, ...]
    cycles: tuple[SymCycle, ...]
    lambda_product: float
    contraction_bound: float


def sym_spiral(cfg: SymSpiralConfig, n_iters: int) -> SymSpiralResult:
    """Iterated quarter-step chase around the rectangle in the symmetric space.

    Every cycle revalidates the sign preconditions, the positive branch of the
    end-of-cycle offset equations, and the z-contraction bound; failures abort
    with the name of the exceeded smallness bound.
    """
    # the upper-triangular corners and anchors have z = 0, where both
    # embeddings give the same matrix
    tri = cfg.tri_config()
    corners = [c.embed() for c in tri.corners()]
    anchors = [a.embed() for a in tri.anchors()]
    lams = tri.lambdas()
    lam_prod = lams[0] * lams[1] * lams[2] * lams[3]
    bound = 0.5 * (1.0 + lam_prod)
    span = cfg.y1 + cfg.alpha[0] - cfg.y2
    p0 = corners[0]

    xi1, xi2 = _branch_offsets(cfg.alpha, cfg.y1, cfg.y2, cfg.xi3)
    y = p0 + SymPt(xi1, xi2, cfg.xi3).embed()
    for which in (0, 3):
        d = (y - anchors[which]).det()
        if abs(d) > 1e-9 * max(1.0, (y - anchors[which]).frob_sq()):
            raise ConstructionError("start point lost its determinant zeros")
    iterates = [y]
    cycles = []
    xi3 = cfg.xi3
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
            rel = abs(diff.det()) / max(1e-300, diff.frob_sq())
            residuals.append(rel)
            if rel > 1e-8:
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
        pos1, _ = _branch_offsets(cfg.alpha, cfg.y1, cfg.y2, eta3)
        neg1 = 0.5 * (-cfg.alpha[3] - math.sqrt(max(
            cfg.alpha[3] ** 2 - 4 * cfg.alpha[3] * eta3 ** 2 / span, 0.0)))
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
    return SymSpiralResult(tuple(project_sym(m) for m in iterates),
                           tuple(cycles), lam_prod, bound)


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
