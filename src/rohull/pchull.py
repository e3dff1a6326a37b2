"""Polyconvex hulls of determinant-nonnegative sets and rank-one plane pairs.

Under the pairwise det >= 0 hypothesis the hull is the order-2 lamination
iterate: the support of any admissible measure sits inside a plane of
rank-one directions, so the hull decomposes into within-plane convex
polygons plus singletons.  Exact 2D orientation tests are the signs of
integer determinants of rows (X, Y, W) for plane points (X/W, Y/W); float
points keep the float cross product.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import numpy as np

from .core import GeometryError, Mat2, _same_mode, combine
from .scalar import DEFAULT_TOL, EXACT, FLOAT, Scalar, common_mode, mode_of

Matrix = tuple[tuple[Scalar, ...], ...]


def to_rows(m) -> Matrix:
    return m.rows() if isinstance(m, Mat2) else tuple(map(tuple, m))


def _over_one_denominator(rows):
    """Rows as stored numbers: int numerators over the least common
    denominator when every entry is exact, else the floats over None."""
    if common_mode(*(e for row in rows for e in row)) == FLOAT:
        return tuple(tuple(row) for row in rows), None
    d = lcm(*(e.denominator for row in rows for e in row))
    return tuple(tuple(e.numerator * (d // e.denominator) for e in row)
                 for row in rows), d


def _mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _primitive(v) -> tuple[Fraction, ...]:
    """A nonzero int vector over the gcd of its entries, first nonzero
    entry positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in v)


def _normalize_float(v):
    arr = np.array([float(x) for x in v])
    n = np.linalg.norm(arr)
    if n == 0:
        return tuple(arr)
    arr = arr / n
    lead = next((x for x in arr if abs(x) > 1e-12), 1.0)
    if lead < 0:
        arr = -arr
    return tuple(float(x) for x in arr)


@dataclass(frozen=True)
class RankOnePlane:
    """Affine plane of matrices in which every difference has rank <= 1.

    kind "left": basepoint + x . generator^T over row coefficients x (the
    generator is the shared row direction); kind "right": basepoint +
    generator . y^T (the generator is the shared column direction).

    An exact plane keeps its basepoint as int numerators over one positive
    denominator and its generator as ints ``g`` with ``generator = g / gs``;
    ``contains`` and ``coords`` work on those and on a query's own stored
    numbers, so the only Fractions they build are the returned coordinates.
    A float plane keeps its floats, with no denominator, as ``Mat2`` does.
    """

    basepoint: Matrix
    kind: str  # "left" or "right"
    generator: tuple[Scalar, ...]

    def __post_init__(self):
        base, bd = _over_one_denominator(self.basepoint)
        if self.kind == "right":
            base = tuple(zip(*base))
        (g,), gs = _over_one_denominator((self.generator,))
        _same_mode(bd, gs)
        # the rows ("left") or columns ("right") of the basepoint
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_den", bd)
        object.__setattr__(self, "_g", g)
        object.__setattr__(self, "_gs", gs)
        object.__setattr__(self, "_gg", sum(x * x for x in g))

    def shape(self) -> tuple[int, int]:
        return len(self.basepoint), len(self.basepoint[0])

    def _difference(self, mat):
        """The rows ("left") or columns ("right") of mat - basepoint, as
        stored numbers over one denominator: ints over a positive int, or
        floats over None."""
        if mat.__class__ is Mat2:
            e = mat._d
            if self.kind == "left":
                q = ((mat._n11, mat._n12), (mat._n21, mat._n22))
            else:
                q = ((mat._n11, mat._n21), (mat._n12, mat._n22))
        else:
            q, e = _over_one_denominator(mat)
            if self.kind == "right":
                q = tuple(zip(*q))
        d = self._den
        if d == e:  # one denominator, or two floats
            return tuple(tuple(x - y for x, y in zip(u, v))
                         for u, v in zip(q, self._base)), d
        _same_mode(d, e)
        return tuple(tuple(x * d - y * e for x, y in zip(u, v))
                     for u, v in zip(q, self._base)), d * e

    def contains(self, mat, tol: Scalar = 0) -> bool:
        """True iff mat lies on the plane.

        Each row ("left") or column ("right") of mat - basepoint must be
        parallel to the generator.  On an exact plane the 2x2 minors are
        decided by their sign, so any nonzero minor rejects.  ``tol`` applies
        to float planes only: there a minor counts as zero up to ``tol``
        times the largest entry of the difference (at least 1).
        """
        return self._holds(*self._difference(mat), tol)

    def _holds(self, vectors, den, tol) -> bool:
        g = self._g
        if den is None:
            rows = vectors if self.kind == "left" else zip(*vectors)
            bound = float(tol) * max([abs(float(e)) for row in rows
                                      for e in row] + [1.0])
        for vec in vectors:
            for i in range(len(g)):
                for j in range(i + 1, len(g)):
                    minor = vec[i] * g[j] - vec[j] * g[i]
                    if minor and (den is not None or abs(minor) > bound):
                        return False
        return True

    def coords(self, mat):
        """Coefficient vector of a member matrix (length m or n); on an
        exact plane, one Fraction per coefficient."""
        return self._coords(*self._difference(mat))

    def _coords(self, vectors, den):
        g, gg = self._g, self._gg
        if den is None:
            return tuple(sum(a * b for a, b in zip(vec, g)) / gg
                         for vec in vectors)
        *nums, q = self._coord_row(vectors, den)
        return tuple(Fraction(x, q) for x in nums)

    def _coord_row(self, vectors, den):
        """Exact coordinates as int numerators and their one denominator:
        <d/den, g/gs> / <g/gs, g/gs> is <vec, g> gs / (den <g, g>)."""
        g, gs = self._g, self._gs
        return (*(sum(a * b for a, b in zip(vec, g)) * gs for vec in vectors),
                den * self._gg)

    def matrix_at(self, coeffs) -> Matrix:
        g = self.generator
        if self.kind == "left":
            delta = tuple(tuple(c * gj for gj in g) for c in coeffs)
        else:
            delta = tuple(tuple(c * gi for c in coeffs) for gi in g)
        return tuple(tuple(b + d for b, d in zip(rb, rd))
                     for rb, rd in zip(self.basepoint, delta))


@dataclass(frozen=True)
class PlanePair:
    p1: RankOnePlane  # left plane, m-dimensional
    p2: RankOnePlane  # right plane, n-dimensional
    intersection_direction: Matrix  # rank-one product of the two generators


def plane_pair(x0, y0, tol: Scalar = DEFAULT_TOL) -> PlanePair:
    """The two rank-one planes through a rank-one connected pair.

    Factorizes the difference as an outer product; every matrix within
    rank <= 1 of both inputs lies in one of the two returned planes.
    """
    b = to_rows(y0)
    d, den = _over_one_denominator(_mat_sub(to_rows(x0), b))
    if den is not None:
        # d is den * (x0 - y0): ints with its rank and its directions
        piv = next(((i, j) for i, row in enumerate(d)
                    for j, e in enumerate(row) if e), None)
        if piv is None:
            raise GeometryError("difference not rank-one")
        i0, j0 = piv
        p, r0 = d[i0][j0], d[i0]
        if any(e * p != row[j0] * r0[j]
               for row in d for j, e in enumerate(row)):
            raise GeometryError("difference not rank-one")
        w0 = _primitive(r0)
        v0 = _primitive([row[j0] for row in d])
    else:
        arr = np.array([[float(e) for e in row] for row in d])
        u, s, vt = np.linalg.svd(arr)
        if s[0] == 0 or (len(s) > 1 and s[1] > float(tol) * max(1.0, s[0])):
            raise GeometryError("difference not rank-one")
        v0 = _normalize_float(u[:, 0])
        w0 = _normalize_float(vt[0])
    inter = tuple(tuple(vi * wj for wj in w0) for vi in v0)
    return PlanePair(RankOnePlane(b, "left", w0),
                     RankOnePlane(b, "right", v0), inter)


# --- pairwise det report --------------------------------------------------


@dataclass(frozen=True)
class DetCheckReport:
    passed: bool
    violating_pair: tuple[int, int] | None
    rank_one_pairs: tuple[tuple[int, int], ...]
    dets: tuple[tuple[int, int, Scalar], ...]


def pairwise_det_check(k) -> DetCheckReport:
    pts = list(k)
    dets = []
    rank_one = []
    violating = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = (pts[i] - pts[j]).det()
            dets.append((i, j, d))
            if d == 0 and pts[i] != pts[j]:
                rank_one.append((i, j))
            if d < 0 and violating is None:
                violating = (i, j)
    return DetCheckReport(violating is None, violating,
                          tuple(rank_one), tuple(dets))


# --- 2D exact convex hull -------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _between(a, b, q) -> bool:
    return (min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= q[1] <= max(a[1], b[1]))


def _orient(o, a, b):
    # the 3x3 determinant of the rows (X, Y, W): cross(o, a, b) Wo Wa Wb
    (xo, yo, wo), (xa, ya, wa), (xb, yb, wb) = o, a, b
    return (xo * (ya * wb - wa * yb) - yo * (xa * wb - wa * xb)
            + wo * (xa * yb - ya * xb))


def _between_int(a, b, q) -> bool:
    # on each axis, a - q and b - q (times W's > 0) differ in sign or vanish
    wa, wb, wq = a[2], b[2], q[2]
    return ((a[0] * wq - q[0] * wa) * (b[0] * wq - q[0] * wb) <= 0
            and (a[1] * wq - q[1] * wa) * (b[1] * wq - q[1] * wb) <= 0)


_FLOAT_2D, _EXACT_2D = (_cross, _between), (_orient, _between_int)


def _plane_rows(points):
    """Plane points as rows for the 2D predicates, with the predicates:
    exact (x, y) as ints (X, Y, W), x = X/W, y = Y/W, W > 0 the lcm of the
    denominators; points with a float coordinate as they are."""
    if any(isinstance(c, float) for p in points for c in p):
        return list(points), _FLOAT_2D
    rows = []
    for x, y in points:
        dx, dy = x.denominator, y.denominator
        w = lcm(dx, dy)
        rows.append((x.numerator * (w // dx), y.numerator * (w // dy), w))
    return rows, _EXACT_2D


def _on_segment_2d(a, b, q, kernel) -> bool:
    return kernel[0](a, b, q) == 0 and kernel[1](a, b, q)


def convex_hull_2d(points):
    """Monotone-chain hull with exact orientation predicates; returns the
    hull vertices counterclockwise (collinear interior points removed)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    rows, (orient, _) = _plane_rows(pts)

    def chain(order):
        out = []
        for i in order:
            while (len(out) > 1
                   and orient(rows[out[-2]], rows[out[-1]], rows[i]) <= 0):
                out.pop()
            out.append(i)
        return out[:-1]
    n = len(pts)
    return [pts[i] for i in chain(range(n)) + chain(range(n - 1, -1, -1))]


def _polygon_holds(rows, q, kernel) -> bool:
    """polygon_contains on rows from ``_plane_rows``."""
    if len(rows) <= 2:  # a point is the segment from it to itself
        return bool(rows) and _on_segment_2d(rows[0], rows[-1], q, kernel)
    orient = kernel[0]
    return all(orient(rows[i - 1], rows[i], q) >= 0
               for i in range(len(rows)))


def polygon_contains(vertices, q) -> bool:
    """Point-in-convex-polygon with exact arithmetic; boundary counts."""
    rows, kernel = _plane_rows(list(vertices) + [tuple(q)])
    return _polygon_holds(rows[:-1], rows[-1], kernel)


# --- hull computation -----------------------------------------------------


@dataclass(frozen=True)
class PlaneHull:
    plane: RankOnePlane
    indices: tuple[int, ...]
    vertices: tuple  # 2D hull vertices in plane coordinates, ccw

    def __post_init__(self):
        # exact vertices as int rows for the 2D predicates, computed once
        rows, kernel = _plane_rows(self.vertices)
        object.__setattr__(self, "_rows",
                           rows if kernel is _EXACT_2D else None)

    def _holds(self, vectors, den) -> bool:
        # polygon_contains of the plane coordinates, on ints when exact
        plane = self.plane
        if den is None or self._rows is None:
            return polygon_contains(self.vertices, plane._coords(vectors, den))
        return _polygon_holds(self._rows, plane._coord_row(vectors, den),
                              _EXACT_2D)


@dataclass(frozen=True)
class HullDescription:
    points: tuple[Mat2, ...]
    planes: tuple[PlaneHull, ...]
    singleton_indices: tuple[int, ...]

    def membership(self, m: Mat2, tol: Scalar = 0) -> bool:
        if any(m == p for p in self.points):
            return True
        for ph in self.planes:
            diff = ph.plane._difference(m)
            if ph.plane._holds(*diff, tol) and ph._holds(*diff):
                return True
        return False


def pc_hull(k, tol: Scalar = DEFAULT_TOL) -> HullDescription:
    """Polyconvex hull of a finite det-nonnegative set of 2x2 matrices.

    Maximal groups of points sharing a rank-one plane become within-plane
    convex polygons; everything else stays a singleton.  Equals the order-2
    lamination iterate under the det >= 0 hypothesis.
    """
    pts = list(k)
    report = pairwise_det_check(pts)
    if not report.passed:
        raise GeometryError("det sign condition violated")
    candidates = []
    for (i, j) in report.rank_one_pairs:
        pair = plane_pair(pts[i], pts[j], tol)
        for plane in (pair.p1, pair.p2):
            members = tuple(idx for idx, p in enumerate(pts)
                            if plane.contains(p, tol))
            if len(members) >= 2:
                candidates.append((members, plane))
    # dedupe by member set; drop sets dominated by a strict superset
    by_members = {}
    for members, plane in candidates:
        by_members.setdefault(frozenset(members), (members, plane))
    kept = []
    for key, (members, plane) in sorted(by_members.items(),
                                        key=lambda kv: kv[1][0]):
        if any(key < other for other in by_members if other != key):
            continue
        kept.append((members, plane))
    plane_hulls = []
    covered = set()
    for members, plane in kept:
        coords = [plane.coords(pts[i]) for i in members]
        verts = convex_hull_2d(coords)
        plane_hulls.append(PlaneHull(plane, members, tuple(verts)))
        covered.update(members)
    singles = tuple(i for i in range(len(pts)) if i not in covered)
    return HullDescription(tuple(pts), tuple(plane_hulls), singles)


# --- Caratheodory ---------------------------------------------------------


class OutsideHullError(GeometryError):
    def __init__(self, direction):
        super().__init__(f"target outside hull; separating direction {direction}")
        self.direction = direction


@dataclass(frozen=True)
class CaratheodoryResult:
    points: tuple
    weights: tuple
    intermediate: Matrix  # first two-point combination
    intermediate_weight: Scalar

    def reconstruct(self) -> Matrix:
        total = None
        for pt, w in zip(self.points, self.weights):
            total = pt.scale(w) if total is None else total + pt.scale(w)
        return total.rows()


def _barycentric(a, b, c, q):
    d = (b[1] - c[1]) * (a[0] - c[0]) + (c[0] - b[0]) * (a[1] - c[1])
    if d == 0:
        return None
    u = ((b[1] - c[1]) * (q[0] - c[0]) + (c[0] - b[0]) * (q[1] - c[1])) / d
    v = ((c[1] - a[1]) * (q[0] - c[0]) + (a[0] - c[0]) * (q[1] - c[1])) / d
    w = 1 - u - v
    return u, v, w


def caratheodory_decompose(plane: RankOnePlane, points, target) -> CaratheodoryResult:
    """Express a hull member as a convex combination of <= 3 set points,
    together with the two-step lamination realization inside the plane."""
    coords = [tuple(plane.coords(p)) for p in points]
    q = tuple(plane.coords(target))
    if len(q) != 2:
        raise GeometryError("Caratheodory decomposition implemented for "
                            "2-dimensional planes")
    one = Fraction(1) if all(mode_of(c) == EXACT for c in q) else 1.0
    zero = 0 * one
    # vertex hit
    for p, c in zip(points, coords):
        if c == q:
            return _finish([p], [one])
    rows, kernel = _plane_rows(coords + [q])
    hq = rows.pop()
    # edge hit
    for i, j in combinations(range(len(points)), 2):
        if not _on_segment_2d(rows[i], rows[j], hq, kernel):
            continue
        a, b = coords[i], coords[j]
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = ((q[0] - a[0]) / dx) if dx != 0 else \
            ((q[1] - a[1]) / dy) if dy != 0 else zero
        return _finish([points[i], points[j]], [one - t, t])
    # triangle hit; exact triangles are tested on ints, and only the one
    # that holds q gets its weights
    for i, j, l in combinations(range(len(points)), 3):
        if kernel is _EXACT_2D and not _in_triangle(rows[i], rows[j],
                                                    rows[l], hq):
            continue
        bar = _barycentric(coords[i], coords[j], coords[l], q)
        if bar is not None and all(x >= 0 for x in bar):
            return _finish([points[i], points[j], points[l]], list(bar))
    hull = convex_hull_2d(coords)
    direction = _separating_direction(hull, q)
    raise OutsideHullError(direction)


def _in_triangle(a, b, c, q) -> bool:
    # q's barycentric weights are these orientations over that of abc
    d = _orient(a, b, c)
    return d != 0 and min(_orient(q, b, c) * d, _orient(a, q, c) * d,
                          _orient(a, b, q) * d) >= 0


def _separating_direction(hull, q):
    rows, (orient, _) = _plane_rows(hull + [q])
    n = len(hull)
    if n >= 3:
        for i in range(n):
            a, b = hull[i], hull[(i + 1) % n]
            if orient(rows[i], rows[(i + 1) % n], rows[n]) < 0:
                return (a[1] - b[1], b[0] - a[0])
    if n == 2:
        a, b = hull
        cr = orient(rows[0], rows[1], rows[2])
        if cr != 0:
            s = 1 if cr < 0 else -1
            return (s * (a[1] - b[1]), s * (b[0] - a[0]))
    a = hull[0] if hull else (0, 0)
    return (q[0] - a[0], q[1] - a[1])


def _finish(pts, weights):
    # reorder so the first weight is nonzero, then realize in two steps
    order = sorted(range(len(pts)), key=lambda i: weights[i] == 0)
    pts = [pts[i] for i in order]
    weights = [weights[i] for i in order]
    head = weights[0] if len(pts) == 1 else weights[0] + weights[1]
    if len(pts) == 1 or head == 0:
        inter = pts[0]
    else:
        inter = combine(pts[0], pts[1], weights[1] / head)
    return CaratheodoryResult(tuple(pts), tuple(weights), inter.rows(), head)
