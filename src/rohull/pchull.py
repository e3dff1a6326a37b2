"""Polyconvex hulls of determinant-nonnegative sets and rank-one plane pairs.

Under the pairwise det >= 0 hypothesis the hull is the order-2 lamination
iterate: the support of any admissible measure sits inside a plane of
rank-one directions, so the hull decomposes into within-plane convex
polygons plus singletons.  Every plane and query is read as ints, a float
at its exact value: a 2x2 plane reads a ``Mat2`` once from its stored ints,
other planes loop over the rows.  Only a float plane's membership uses
``tol`` (``core.rank_rows``); its coordinates, points and polygon vertices
are exact values rounded once.  2D orientation tests are the signs of int
determinants of rows (X, Y, W) for plane points (X/W, Y/W).  A Caratheodory
split needs an exact plane; its weights are ratios of int determinants.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .core import GeometryError, Mat2, combine, exact_value, rank2x2, rank_rows
from .scalar import (DEFAULT_TOL, FLOAT, MixedModeError, Scalar, common_mode,
                     to_float)

Matrix = tuple[tuple[Scalar, ...], ...]


def to_rows(m) -> Matrix:
    return m.rows() if isinstance(m, Mat2) else tuple(map(tuple, m))


def _same(is_float, other):
    if is_float != other:
        raise MixedModeError("cannot mix exact and float scalars")


def _over_one_denominator(rows):
    """(rows, d, float): the entries as int numerators over their least
    common denominator d, each at its exact value (a non-finite float
    raises), and whether they are floats (a mix raises)."""
    is_float = common_mode(*(e for row in rows for e in row)) == FLOAT
    try:
        rows = [[e.as_integer_ratio() for e in row] for row in rows]
    except (OverflowError, ValueError):
        raise GeometryError(f"not a finite number in {rows}") from None
    d = lcm(*(q for row in rows for _, q in row))
    return (tuple(tuple(n * (d // q) for n, q in row) for row in rows), d,
            is_float)


def _primitive(v) -> tuple[Fraction, ...]:
    """A nonzero int vector over the gcd of its entries, first nonzero
    entry positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in v)


@dataclass(frozen=True)
class RankOnePlane:
    """Affine plane of matrices in which every difference has rank <= 1.

    kind "left": basepoint + x . generator^T over row coefficients x (the
    generator is the shared row direction); kind "right": basepoint +
    generator . y^T (the generator is the shared column direction).

    A plane keeps its basepoint as int numerators over one positive
    denominator and its generator as ints ``g`` with ``generator = g / gs``,
    a float entry at its exact value; ``contains`` and ``coords`` work on
    those and on a query's own stored numbers, so the only Fractions they
    build are the returned coordinates.  A float plane takes float queries
    and returns floats, each the exact value rounded once.
    """

    basepoint: Matrix
    kind: str  # "left" or "right"
    generator: tuple[Scalar, ...]

    def __post_init__(self):
        base, bd, is_float = _over_one_denominator(self.basepoint)
        if self.kind == "right":
            base = tuple(zip(*base))
        (g,), gs, g_float = _over_one_denominator((self.generator,))
        if not any(g):
            raise GeometryError("a rank-one plane needs a nonzero generator")
        _same(is_float, g_float)
        # the rows ("left") or columns ("right") of the basepoint, and on a
        # 2x2 plane the same four ints flat
        object.__setattr__(self, "_float", is_float)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_flat", base[0] + base[1]
                           if self.shape() == (2, 2) else None)
        object.__setattr__(self, "_den", bd)
        object.__setattr__(self, "_g", g)
        object.__setattr__(self, "_gs", gs)
        object.__setattr__(self, "_gg", sum(x * x for x in g))

    def shape(self) -> tuple[int, int]:
        return len(self.basepoint), len(self.basepoint[0])

    def _difference(self, mat):
        """The rows ("left") or columns ("right") of mat - basepoint, as
        int numerators over one positive int denominator.  On a 2x2 plane
        they come flat, (x1, y1, x2, y2), read from the stored ints of a
        Mat2, a float one at its exact value (tuple rows become one);
        other planes loop over the m x n rows."""
        d, flat = self._den, self._flat
        if flat is None:
            q, e, is_float = _over_one_denominator(to_rows(mat))
            _same(self._float, is_float)
            if self.kind == "right":
                q = tuple(zip(*q))
            if d == e:
                return tuple(tuple(x - y for x, y in zip(u, v))
                             for u, v in zip(q, self._base)), d
            return tuple(tuple(x * d - y * e for x, y in zip(u, v))
                         for u, v in zip(q, self._base)), d * e
        if mat.__class__ is not Mat2:
            mat = Mat2.from_rows(mat)
        _same(self._float, mat._d is None)
        mat = exact_value(mat)
        e, n11, n22 = mat._d, mat._n11, mat._n22
        n12, n21 = ((mat._n12, mat._n21) if self.kind == "left"
                    else (mat._n21, mat._n12))
        b11, b12, b21, b22 = flat
        if d == e:
            return (n11 - b11, n12 - b12, n21 - b21, n22 - b22), d
        return (n11 * d - b11 * e, n12 * d - b12 * e,
                n21 * d - b21 * e, n22 * d - b22 * e), d * e

    def contains(self, mat, tol: Scalar = 0) -> bool:
        """True iff mat lies on the plane: each row ("left") or column
        ("right") of mat - basepoint is parallel to the generator.  An exact
        plane decides the 2x2 minors by their sign; a float plane by
        ``core.rank_rows`` at ``tol`` on the exact difference and generator,
        each over its largest |entry| and rounded once."""
        return self._holds(*self._difference(mat), tol)

    def _holds(self, vectors, den, tol) -> bool:
        g, flat = self._g, self._flat is not None
        if self._float:  # each over its largest |entry|, rounded once
            rows = (vectors[:2], vectors[2:]) if flat else vectors
            s, t = max(max(map(abs, v)) for v in rows) or 1, max(map(abs, g))
            return rank_rows([[x / s for x in v] for v in rows]
                             + [[x / t for x in g]], tol) < 2
        if flat:
            x1, y1, x2, y2 = vectors
            return not (x1 * g[1] - y1 * g[0] or x2 * g[1] - y2 * g[0])
        return not any(vec[i] * g[j] - vec[j] * g[i] for vec in vectors
                       for i, j in combinations(range(len(g)), 2))

    def coords(self, mat):
        """Coefficient vector of a member matrix (length m or n): one
        Fraction per coefficient, rounded once on a float plane."""
        c = self._coords(mat)
        return tuple(map(to_float, c)) if self._float else c

    def _coords(self, mat):
        *nums, q = self._coord_row(*self._difference(mat))
        return tuple(Fraction(x, q) for x in nums)

    def _coord_row(self, vectors, den):
        """Exact coordinates as int numerators and their one denominator:
        <d/den, g/gs> / <g/gs, g/gs> is <vec, g> gs / (den <g, g>)."""
        g, gs = self._g, self._gs
        if self._flat is not None:
            x1, y1, x2, y2 = vectors
            return ((x1 * g[0] + y1 * g[1]) * gs,
                    (x2 * g[0] + y2 * g[1]) * gs, den * self._gg)
        return (*(sum(a * b for a, b in zip(vec, g)) * gs for vec in vectors),
                den * self._gg)

    def matrix_at(self, coeffs) -> Matrix:
        """Exact entries, c = n/m: b/den + c g/gs = (b m gs + n g den) /
        (den m gs); rounded once on a float plane."""
        _same(self._float, common_mode(*coeffs) == FLOAT)
        den, gs = self._den, self._gs
        vecs = tuple(tuple(Fraction(b * q + p * gk, den * q)
                           for b, gk in zip(vec, self._g))
                     for vec, c in zip(self._base, coeffs)
                     for n, m in [c.as_integer_ratio()]
                     for q, p in [(m * gs, n * den)])
        if self._float:
            vecs = tuple(tuple(map(to_float, v)) for v in vecs)
        return vecs if self.kind == "left" else tuple(zip(*vecs))


@dataclass(frozen=True)
class PlanePair:
    p1: RankOnePlane  # left plane, m-dimensional
    p2: RankOnePlane  # right plane, n-dimensional
    intersection_direction: Matrix  # rank-one product of the two generators


def plane_pair(x0, y0, tol: Scalar = DEFAULT_TOL) -> PlanePair:
    """The two rank-one planes through a rank-one connected pair.

    Factorizes the difference through its largest entry ``p``: the pivot
    row and column are the generators, primitive ints when exact and over
    ``p`` when float, and every matrix within rank <= 1 of both inputs lies
    in one of the two returned planes.  The difference is rank one when the
    fit ``c r / p`` of its pivot column ``c`` and row ``r`` leaves no
    residual: exactly when exact; when float, by ``core.rank_rows`` at
    ``tol`` on the float difference, the m x n form of ``rank2x2``'s rule.
    """
    b = to_rows(y0)
    # d is den * (x0 - y0) on ints when exact, else x0 - y0 on floats
    if x0.__class__ is y0.__class__ is Mat2:  # the stored numbers of x0 - y0
        m = x0 - y0
        d, is_float = ((m._n11, m._n12), (m._n21, m._n22)), m._d is None
    else:
        d = [[u - v for u, v in zip(r, s)] for r, s in zip(to_rows(x0), b)]
        ints, _, is_float = _over_one_denominator(d)
        d = d if is_float else ints
    r0 = max(d, key=lambda row: max(map(abs, row)))  # the pivot's row
    j0 = max(range(len(r0)), key=lambda j: abs(r0[j]))
    p, c0 = r0[j0], [row[j0] for row in d]
    if is_float:
        ok = rank_rows(d, tol) == 1
    else:  # p times the residuals: the minors through p
        ok = p and not any(e * p != c * r
                           for c, row in zip(c0, d) for e, r in zip(row, r0))
    if not ok:
        raise GeometryError("difference not rank-one")
    w0, v0 = ((tuple(x / p or 0.0 for x in r0),  # 0.0, never -0.0
               tuple(x / p or 0.0 for x in c0))
              if is_float else (_primitive(r0), _primitive(c0)))
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
    """Pairwise dets; a pair violates only at rank 2 (rank2x2) and det < 0."""
    pts = list(k)
    dets = []
    rank_one = []
    violating = None
    for i, j in combinations(range(len(pts)), 2):
        diff = pts[i] - pts[j]
        d = diff.det()
        dets.append((i, j, d))
        if diff.mode == FLOAT:  # decide the sign where no underflow hides it
            d = exact_value(diff)._det_num()
        rank = rank2x2(diff)
        if rank == 1:
            rank_one.append((i, j))
        elif rank == 2 and d < 0 and violating is None:
            violating = (i, j)
    return DetCheckReport(violating is None, violating,
                          tuple(rank_one), tuple(dets))


# --- 2D exact convex hull -------------------------------------------------


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


def _plane_rows(points):
    """Plane points (x, y) as int rows (X, Y, W) for the 2D predicates:
    x = X/W, y = Y/W, W > 0 the lcm of the denominators.  Each coordinate
    enters at its exact value, a float too; a non-finite one raises."""
    rows = []
    for p in points:
        try:
            (nx, dx), (ny, dy) = (c.as_integer_ratio() for c in p)
        except (OverflowError, ValueError):
            raise GeometryError(f"not a finite number in {p}") from None
        w = lcm(dx, dy)
        rows.append((nx * (w // dx), ny * (w // dy), w))
    return rows


def _on_segment_2d(a, b, q) -> bool:
    return _orient(a, b, q) == 0 and _between_int(a, b, q)


def convex_hull_2d(points):
    """Monotone-chain hull with exact orientation predicates; returns the
    hull vertices counterclockwise (collinear interior points removed)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    rows = _plane_rows(pts)

    def chain(order):
        out = []
        for i in order:
            while (len(out) > 1
                   and _orient(rows[out[-2]], rows[out[-1]], rows[i]) <= 0):
                out.pop()
            out.append(i)
        return out[:-1]
    n = len(pts)
    return [pts[i] for i in chain(range(n)) + chain(range(n - 1, -1, -1))]


def _polygon_holds(rows, q) -> bool:
    """polygon_contains on rows from ``_plane_rows``."""
    if len(rows) <= 2:  # a point is the segment from it to itself
        return bool(rows) and _on_segment_2d(rows[0], rows[-1], q)
    return all(_orient(rows[i - 1], rows[i], q) >= 0
               for i in range(len(rows)))


def polygon_contains(vertices, q) -> bool:
    """Point-in-convex-polygon with exact arithmetic; boundary counts."""
    rows = _plane_rows(list(vertices) + [tuple(q)])
    return _polygon_holds(rows[:-1], rows[-1])


# --- hull computation -----------------------------------------------------


@dataclass(frozen=True)
class PlaneHull:
    plane: RankOnePlane
    indices: tuple[int, ...]
    vertices: tuple  # 2D hull vertices in plane coordinates, ccw

    def __post_init__(self):
        # the vertices as int rows for the 2D predicates, computed once at
        # the values given; then a float plane rounds its vertices once
        object.__setattr__(self, "_rows", _plane_rows(self.vertices))
        if self.plane._float:
            object.__setattr__(self, "vertices", tuple(
                tuple(map(to_float, v)) for v in self.vertices))

    def _holds(self, vectors, den) -> bool:
        # polygon_contains of the exact plane coordinates
        return _polygon_holds(self._rows, self.plane._coord_row(vectors, den))


@dataclass(frozen=True)
class HullDescription:
    points: tuple[Mat2, ...]
    planes: tuple[PlaneHull, ...]
    singleton_indices: tuple[int, ...]

    def __post_init__(self):
        # the points by the stored ints of their exact values, which are
        # equal exactly when the values are, a float point's too
        object.__setattr__(self, "_keys", frozenset(
            _stored(exact_value(p)) for p in self.points))

    def membership(self, m: Mat2, tol: Scalar = 0) -> bool:
        if _stored(exact_value(m)) in self._keys:
            return True
        for ph in self.planes:
            diff = ph.plane._difference(m)
            if ph.plane._holds(*diff, tol) and ph._holds(*diff):
                return True
        return False


def _stored(m: Mat2):
    return m._n11, m._n12, m._n21, m._n22, m._d


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
    groups = {}  # member set -> the first plane found that holds it
    for (i, j) in report.rank_one_pairs:
        pair = plane_pair(pts[i], pts[j])  # at the pairs' DEFAULT_TOL
        for plane in (pair.p1, pair.p2):
            members = frozenset(idx for idx, p in enumerate(pts)
                                if idx in (i, j) or plane.contains(p, tol))
            if len(members) >= 2:
                groups.setdefault(members, plane)
    # the maximal sets in member order: drop those a strict superset holds
    plane_hulls = []
    for key, plane in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        if not any(key < other for other in groups):
            members = tuple(sorted(key))
            verts = convex_hull_2d([plane._coords(pts[i]) for i in members])
            plane_hulls.append(PlaneHull(plane, members, tuple(verts)))
    covered = {i for ph in plane_hulls for i in ph.indices}
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


def caratheodory_decompose(plane: RankOnePlane, points, target) -> CaratheodoryResult:
    """Express a hull member as a convex combination of <= 3 set points,
    together with the two-step lamination realization inside the plane.
    The plane must be exact; the search runs on its int rows (X, Y, W)."""
    if plane._float:
        raise GeometryError("Caratheodory decomposition needs an exact plane")
    rows = [plane._coord_row(*plane._difference(p)) for p in points]
    q = plane._coord_row(*plane._difference(target))
    if len(q) != 3:
        raise GeometryError("Caratheodory decomposition implemented for "
                            "2-dimensional planes")
    xq, yq, wq = q
    for p, (x, y, w) in zip(points, rows):  # vertex hit
        if x * wq == xq * w and y * wq == yq * w:
            return _finish([p], [Fraction(1)])
    # edge hit; a != b, as q on an edge of length 0 is a vertex hit
    for (i, a), (j, b) in combinations(enumerate(rows), 2):
        if _on_segment_2d(a, b, q):
            k = 0 if b[0] * a[2] != a[0] * b[2] else 1
            t = Fraction((q[k] * a[2] - a[k] * wq) * b[2],
                         (b[k] * a[2] - a[k] * b[2]) * wq)
            return _finish([points[i], points[j]], [1 - t, t])
    # triangle hit; the weight of v is (orient with q for v) W_v / (d W_q)
    for (i, a), (j, b), (l, c) in combinations(enumerate(rows), 3):
        d = _orient(a, b, c)
        if d == 0:
            continue
        o = (_orient(q, b, c), _orient(a, q, c), _orient(a, b, q))
        if all(ok * d >= 0 for ok in o):
            return _finish([points[i], points[j], points[l]],
                           [Fraction(ok * v[2], d * wq)
                            for ok, v in zip(o, (a, b, c))])
    coords = [(Fraction(x, w), Fraction(y, w)) for x, y, w in rows]
    raise OutsideHullError(_separating_direction(
        convex_hull_2d(coords), (Fraction(xq, wq), Fraction(yq, wq))))


def _separating_direction(hull, q):
    rows = _plane_rows(hull + [q])
    n = len(hull)
    if n >= 3:
        for i in range(n):
            a, b = hull[i], hull[(i + 1) % n]
            if _orient(rows[i], rows[(i + 1) % n], rows[n]) < 0:
                return (a[1] - b[1], b[0] - a[0])
    if n == 2:
        a, b = hull
        cr = _orient(rows[0], rows[1], rows[2])
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
