"""Polyconvex hulls of determinant-nonnegative sets and rank-one plane pairs.

Under the pairwise det >= 0 hypothesis the hull is the order-2 lamination
iterate: the support of any admissible measure sits inside a plane of
rank-one directions, so the hull decomposes into within-plane convex
polygons plus singletons.  An exact 2x2 plane reads a ``Mat2`` query once
from its stored ints; tuple rows on the m x n planes and every float plane
loop over the rows.  Exact 2D orientation tests are the signs of
integer determinants of rows (X, Y, W) for plane points (X/W, Y/W); a float
coordinate enters at its exact value.  A Caratheodory split needs an exact
plane: it searches the plane's int rows, and its weights are ratios of
integer determinants.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, hypot, inf, lcm

from .core import GeometryError, Mat2, _same_mode, combine, rank2x2
from .scalar import DEFAULT_TOL, FLOAT, Scalar, common_mode

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


def _unit(v) -> tuple[float, ...]:
    """A nonzero float vector over its length, first entry above 1e-12 in
    magnitude positive."""
    n = hypot(*v)
    if n == inf:  # over the largest |entry| first, so the length is finite
        s = max(map(abs, v))
        return _unit([x / s for x in v])
    u = tuple(float(x) / n for x in v)
    if next(x for x in u if abs(x) > 1e-12) < 0:
        u = tuple(-x for x in u)
    return u


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
        if not any(g):
            raise GeometryError("a rank-one plane needs a nonzero generator")
        _same_mode(bd, gs)
        # the rows ("left") or columns ("right") of the basepoint, and on an
        # exact 2x2 plane the same four ints flat
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_flat", base[0] + base[1] if bd is not None
                           and self.shape() == (2, 2) else None)
        object.__setattr__(self, "_den", bd)
        object.__setattr__(self, "_g", g)
        object.__setattr__(self, "_gs", gs)
        object.__setattr__(self, "_gg", sum(x * x for x in g))

    def shape(self) -> tuple[int, int]:
        return len(self.basepoint), len(self.basepoint[0])

    def _difference(self, mat):
        """The rows ("left") or columns ("right") of mat - basepoint, as
        stored numbers over one denominator: ints over a positive int, or
        floats over None.  On an exact 2x2 plane they come flat, (x1, y1,
        x2, y2), read from the stored ints of a Mat2 (tuple rows become
        one); other planes loop over the m x n rows."""
        d, flat = self._den, self._flat
        if flat is None:
            q, e = _over_one_denominator(to_rows(mat))
            if self.kind == "right":
                q = tuple(zip(*q))
            if d == e:  # one denominator, or two floats
                return tuple(tuple(x - y for x, y in zip(u, v))
                             for u, v in zip(q, self._base)), d
            _same_mode(d, e)
            return tuple(tuple(x * d - y * e for x, y in zip(u, v))
                         for u, v in zip(q, self._base)), d * e
        if mat.__class__ is not Mat2:
            mat = Mat2.from_rows(mat)
        e, n11, n22 = mat._d, mat._n11, mat._n22
        n12, n21 = ((mat._n12, mat._n21) if self.kind == "left"
                    else (mat._n21, mat._n12))
        b11, b12, b21, b22 = flat
        if d == e:
            return (n11 - b11, n12 - b12, n21 - b21, n22 - b22), d
        _same_mode(d, e)
        return (n11 * d - b11 * e, n12 * d - b12 * e,
                n21 * d - b21 * e, n22 * d - b22 * e), d * e

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
        if self._flat is not None:
            x1, y1, x2, y2 = vectors
            return not (x1 * g[1] - y1 * g[0] or x2 * g[1] - y2 * g[0])
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
        if self._flat is not None:
            x1, y1, x2, y2 = vectors
            return ((x1 * g[0] + y1 * g[1]) * gs,
                    (x2 * g[0] + y2 * g[1]) * gs, den * self._gg)
        return (*(sum(a * b for a, b in zip(vec, g)) * gs for vec in vectors),
                den * self._gg)

    def matrix_at(self, coeffs) -> Matrix:
        """Exact entries: b/den + p/q g/gs = (b q gs + p g den)/(den q gs)."""
        den, gs = self._den, self._gs
        if den is not None and all(isinstance(c, (int, Fraction))
                                   for c in coeffs):
            vecs = tuple(tuple(Fraction(b * q + p * gk, den * q)
                               for b, gk in zip(vec, self._g))
                         for vec, c in zip(self._base, coeffs)
                         for q, p in [(c.denominator * gs, c.numerator * den)])
            return vecs if self.kind == "left" else tuple(zip(*vecs))
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

    Factorizes the difference through its largest entry ``p``: the pivot
    row and column are the generators, and every matrix within rank <= 1
    of both inputs lies in one of the two returned planes.  The difference
    is rank one when the fit ``c r / p`` of its pivot column ``c`` and row
    ``r`` leaves no residual: exactly when exact; when float, each residual
    over ``p`` within ``tol`` times the sum of the ``(e/p)^2``, the m x n
    form of ``rank2x2``'s rule (on a 2x2, the same float values).
    """
    b = to_rows(y0)
    # d is den * (x0 - y0) on ints when exact, else x0 - y0 on floats
    if x0.__class__ is y0.__class__ is Mat2:  # the stored numbers of x0 - y0
        m = x0 - y0
        d, den = ((m._n11, m._n12), (m._n21, m._n22)), m._d
    else:
        d, den = _over_one_denominator(_mat_sub(to_rows(x0), b))
    r0 = max(d, key=lambda row: max(map(abs, row)))  # the pivot's row
    j0 = max(range(len(r0)), key=lambda j: abs(r0[j]))
    p, c0 = r0[j0], [row[j0] for row in d]
    if not p:
        raise GeometryError("difference not rank-one")
    if den is not None:  # p times the residuals: the minors through p
        bad = any(e * p != c * r
                  for c, row in zip(c0, d) for e, r in zip(row, r0))
    else:  # the residuals over p, where no product overflows
        qc, qr = [c / p for c in c0], [r / p for r in r0]
        bound = float(tol) * sum((e / p) * (e / p) for row in d for e in row)
        bad = any(abs(e / p - c * r) > bound
                  for c, row in zip(qc, d) for e, r in zip(row, qr))
    if bad:
        raise GeometryError("difference not rank-one")
    unit = _primitive if den is not None else _unit
    w0, v0 = unit(r0), unit(c0)
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
            (a, b, _), (c, e, _) = _plane_rows(diff.rows())
            d = a * e - b * c  # the exact det times positive W's
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
        # the vertices as int rows for the 2D predicates, computed once
        object.__setattr__(self, "_rows", _plane_rows(self.vertices))

    def _holds(self, vectors, den) -> bool:
        # polygon_contains of the plane coordinates, float ones exactly
        plane = self.plane
        q = (plane._coord_row(vectors, den) if den is not None else
             _plane_rows([plane._coords(vectors, den)])[0])
        return _polygon_holds(self._rows, q)


@dataclass(frozen=True)
class HullDescription:
    points: tuple[Mat2, ...]
    planes: tuple[PlaneHull, ...]
    singleton_indices: tuple[int, ...]

    def __post_init__(self):
        # an exact set's points by their stored ints, which are equal
        # exactly when the values are; other sets compare values
        exact = all(p._d is not None for p in self.points)
        object.__setattr__(self, "_keys", frozenset(map(_stored, self.points))
                           if exact else None)

    def membership(self, m: Mat2, tol: Scalar = 0) -> bool:
        keys = self._keys
        if (_stored(m) in keys if keys is not None and m._d is not None
                else any(m == p for p in self.points)):
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
                                if plane.contains(p, tol))
            if len(members) >= 2:
                groups.setdefault(members, plane)
    # the maximal sets in member order: drop those a strict superset holds
    plane_hulls = []
    for key, plane in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        if not any(key < other for other in groups):
            members = tuple(sorted(key))
            verts = convex_hull_2d([plane.coords(pts[i]) for i in members])
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
    if plane._den is None:
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
