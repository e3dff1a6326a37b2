"""Polyconvex hulls of determinant-nonnegative sets and rank-one plane pairs.

Under the pairwise det >= 0 hypothesis the hull is the order-2 lamination
iterate: the support of any admissible measure sits inside a plane of
rank-one directions, so the hull decomposes into within-plane convex
polygons plus singletons.  Planes and queries are ints, a float at its
exact value: ``plane_pair`` builds planes from its inputs' stored ints, a
2x2 plane reads a ``Mat2`` query once from its stored ints.  Only a float
plane's membership uses ``tol``; its other results are exact values rounded
once.  2D orientation tests are the signs of int determinants of rows
(X, Y, W) for plane points (X/W, Y/W).  A Caratheodory split needs an exact
plane; its weights are ratios of int determinants.
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


def _ratios(values):
    """Each value's exact (numerator, denominator); a non-finite raises."""
    try:
        return [e.as_integer_ratio() for e in values]
    except (OverflowError, ValueError):
        raise GeometryError(f"not a finite number in {values}") from None


def _over_one_denominator(rows):
    """(rows, d, float): the entries as int numerators over their least
    common denominator d, each at its exact value (a non-finite float
    raises), and whether they are floats (a mix raises)."""
    is_float = common_mode(*(e for row in rows for e in row)) == FLOAT
    rows = [_ratios(row) for row in rows]
    d = lcm(*(q for row in rows for _, q in row))
    return (tuple(tuple(n * (d // q) for n, q in row) for row in rows), d,
            is_float)


def _primitive(v) -> tuple[int, ...]:
    """A nonzero int vector over its gcd, first nonzero entry positive."""
    g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
    return tuple(x // g for x in v)


def _plane(kind, base, den, g, gs, is_float) -> "RankOnePlane":
    """The one builder of every RankOnePlane: ``base`` holds the rows
    ("left") or columns ("right") of the basepoint as int numerators over
    ``den`` > 0; the generator is ``g / gs``, ints not all 0 over ``gs`` >
    0.  On a 2x2 plane ``_flat`` holds the four ints of ``base`` flat."""
    p = object.__new__(RankOnePlane)
    p.kind, p._float, p._base, p._den = kind, is_float, base, den
    p._flat = base[0] + base[1] if len(base) == len(base[0]) == 2 else None
    p._g, p._gs, p._gg = g, gs, sum(x * x for x in g)
    return p


class RankOnePlane:
    """Affine plane of matrices in which every difference has rank <= 1.

    kind "left": basepoint + x . generator^T over row coefficients x (the
    generator is the shared row direction); kind "right": basepoint +
    generator . y^T (the generator is the shared column direction).

    A plane holds ints only (see ``_plane``), to which this constructor
    reduces its rows.  ``basepoint`` and ``generator`` are read off them,
    as ``Mat2``'s entries are; the only Fractions the queries build are the
    values they return.  A float plane takes float queries and returns
    floats, each the exact value rounded once.
    """

    def __new__(cls, basepoint: Matrix, kind: str, generator):
        base, den, is_float = _over_one_denominator(basepoint)
        (g,), gs, g_float = _over_one_denominator((generator,))
        if not any(g):
            raise GeometryError("a rank-one plane needs a nonzero generator")
        _same(is_float, g_float)
        if len({len(row) for row in base}) != 1 or \
                len(g) != len(base[0] if kind == "left" else base):
            raise GeometryError("a rank-one plane needs rows of one length "
                                "and a generator of its vectors' length")
        return _plane(kind, base if kind == "left" else tuple(zip(*base)),
                      den, g, gs, is_float)

    def _value(self, n, d) -> Scalar:
        return to_float(Fraction(n, d)) if self._float else Fraction(n, d)

    @property
    def basepoint(self) -> Matrix:
        vecs = self._base if self.kind == "left" else zip(*self._base)
        return tuple(tuple(self._value(b, self._den) for b in v) for v in vecs)

    @property
    def generator(self) -> tuple[Scalar, ...]:
        return tuple(self._value(x, self._gs) for x in self._g)

    def _key(self):
        return self.basepoint, self.kind, self.generator

    def __eq__(self, other) -> bool:
        return (self._key() == other._key()
                if other.__class__ is RankOnePlane else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"RankOnePlane(basepoint={self.basepoint!r}, "
                f"kind={self.kind!r}, generator={self.generator!r})")

    def __reduce__(self):
        return RankOnePlane, self._key()

    def shape(self) -> tuple[int, int]:
        m, n = len(self._base), len(self._base[0])
        return (m, n) if self.kind == "left" else (n, m)

    def _difference(self, mat):
        """The rows ("left") or columns ("right") of mat - basepoint as int
        numerators over one int denominator > 0: on a 2x2 plane flat, (x1,
        y1, x2, y2), from the stored ints of a Mat2 (tuple rows become one),
        else by a loop over the m x n rows."""
        d, flat = self._den, self._flat
        if flat is None:
            rows, (m, n) = to_rows(mat), self.shape()
            if [len(row) for row in rows] != [n] * m:
                raise GeometryError(f"a {m}x{n} plane takes {m}x{n} queries")
            q, e, is_float = _over_one_denominator(rows)
            _same(self._float, is_float)
            q = q if self.kind == "left" else tuple(zip(*q))
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
        """True iff each row ("left") or column ("right") of mat - basepoint
        is parallel to the generator: exactly on an exact plane, on a float
        one by ``core.rank_rows`` at ``tol`` on the exact difference and
        generator, each over its largest |entry| and rounded once."""
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
        (den m gs); a 2x2 plane writes its four from its flat ints.  Rounded
        once on a float plane."""
        _same(self._float, common_mode(*coeffs) == FLOAT)
        den, gs, g = self._den, self._gs, self._g
        if self._flat is not None:
            b11, b12, b21, b22 = self._flat
            (g1, g2), ((n1, m1), (n2, m2)) = g, _ratios(coeffs)
            q1, p1, q2, p2 = m1 * gs, n1 * den, m2 * gs, n2 * den
            vecs = ((Fraction(b11 * q1 + p1 * g1, den * q1),
                     Fraction(b12 * q1 + p1 * g2, den * q1)),
                    (Fraction(b21 * q2 + p2 * g1, den * q2),
                     Fraction(b22 * q2 + p2 * g2, den * q2)))
        else:
            if len(coeffs) != len(self._base):  # one per row or column
                raise GeometryError(f"needs {len(self._base)} coefficients")
            vecs = tuple(tuple(Fraction(b * q + p * gk, den * q)
                               for b, gk in zip(vec, g))
                         for vec, (n, m) in zip(self._base, _ratios(coeffs))
                         for q, p in [(m * gs, n * den)])
        if self._float:
            vecs = tuple(tuple(map(to_float, v)) for v in vecs)
        return vecs if self.kind == "left" else tuple(zip(*vecs))


@dataclass(frozen=True)
class PlanePair:
    p1: RankOnePlane  # left plane, m-dimensional
    p2: RankOnePlane  # right plane, n-dimensional

    @property
    def intersection_direction(self) -> Matrix:  # the generators' product
        return tuple(tuple(v * w for w in self.p1.generator)
                     for v in self.p2.generator)


def plane_pair(x0, y0, tol: Scalar = DEFAULT_TOL) -> PlanePair:
    """The two rank-one planes through a rank-one connected pair.

    Factorizes the difference through its largest entry ``p``: the pivot
    row and column are the generators, primitive ints when exact and over
    ``p`` when float; every matrix within rank <= 1 of both inputs lies in
    one of the planes.  The difference is rank one when the fit ``c r / p``
    of its pivot column ``c`` and row ``r`` leaves no residual, exactly or,
    when float, by ``core.rank_rows`` at ``tol`` (``rank2x2``'s rule).
    """
    # d is den * (x0 - y0) on ints when exact, else x0 - y0 on floats
    if x0.__class__ is y0.__class__ is Mat2:  # the stored numbers of x0 - y0
        m = x0 - y0
        d, is_float = ((m._n11, m._n12), (m._n21, m._n22)), m._d is None
    else:
        d = [[u - v for u, v in zip(r, s)]
             for r, s in zip(to_rows(x0), to_rows(y0))]
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
    if is_float:  # the generators over p, 0.0 and never -0.0
        w0, v0 = (tuple(x / p or 0.0 for x in v) for v in (r0, c0))
    else:
        w0, v0 = _primitive(r0), _primitive(c0)
    if is_float or y0.__class__ is not Mat2:
        b = to_rows(y0)
        return PlanePair(RankOnePlane(b, "left", w0),
                         RankOnePlane(b, "right", v0))
    base = ((y0._n11, y0._n12), (y0._n21, y0._n22))  # y0's stored ints
    return PlanePair(_plane("left", base, y0._d, w0, 1, False),
                     _plane("right", tuple(zip(*base)), y0._d, v0, 1, False))


# --- pairwise det report --------------------------------------------------


@dataclass(frozen=True)
class DetCheckReport:
    passed: bool
    violating_pair: tuple[int, int] | None
    rank_one_pairs: tuple[tuple[int, int], ...]
    dets: tuple[tuple[int, int, Scalar], ...]


def pairwise_det_check(k) -> DetCheckReport:
    """Pairwise dets; a pair violates only at rank 2 (rank2x2) and det < 0."""
    pts, dets, rank_one, violating = list(k), [], [], None
    for i, j in combinations(range(len(pts)), 2):
        diff = pts[i] - pts[j]
        dets.append((i, j, diff.det()))
        rank = rank2x2(diff)
        if rank == 1:
            rank_one.append((i, j))
        # the sign of det at the exact value, which no underflow hides
        elif (rank == 2 and exact_value(diff)._det_num() < 0
              and violating is None):
            violating = (i, j)
    return DetCheckReport(violating is None, violating,
                          tuple(rank_one), tuple(dets))


# --- 2D exact convex hull -------------------------------------------------


def _orient(o, a, b):
    # the 3x3 determinant of the rows (X, Y, W): cross(o, a, b) Wo Wa Wb
    (xo, yo, wo), (xa, ya, wa), (xb, yb, wb) = o, a, b
    return (xo * (ya * wb - wa * yb) - yo * (xa * wb - wa * xb)
            + wo * (xa * yb - ya * xb))


def _plane_rows(points):
    """Plane points (x, y) at their exact values as int rows (X, Y, W):
    x = X/W, y = Y/W, W > 0 the lcm of the denominators."""
    rows, ratios = [], iter(_ratios([c for p in points for c in p]))
    for (nx, dx), (ny, dy) in zip(ratios, ratios):
        if dx == dy:
            rows.append((nx, ny, dx))
        else:
            w = lcm(dx, dy)
            rows.append((nx * (w // dx), ny * (w // dy), w))
    return rows


def _on_segment_2d(a, b, q) -> bool:
    # collinear, and on each axis a - q and b - q differ in sign or vanish
    wa, wb, wq = a[2], b[2], q[2]
    return (_orient(a, b, q) == 0
            and (a[0] * wq - q[0] * wa) * (b[0] * wq - q[0] * wb) <= 0
            and (a[1] * wq - q[1] * wa) * (b[1] * wq - q[1] * wb) <= 0)


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
        # int rows of the exact vertices; a float plane then rounds them
        object.__setattr__(self, "_rows", _plane_rows(self.vertices))
        if self.plane._float:
            object.__setattr__(self, "vertices", tuple(
                tuple(map(to_float, v)) for v in self.vertices))


@dataclass(frozen=True)
class HullDescription:
    points: tuple[Mat2, ...]
    planes: tuple[PlaneHull, ...]
    singleton_indices: tuple[int, ...]

    def __post_init__(self):
        # the stored ints of the exact values: equal exactly when they are
        object.__setattr__(self, "_keys", frozenset(
            _stored(exact_value(p)) for p in self.points))

    def membership(self, m: Mat2, tol: Scalar = 0) -> bool:
        if _stored(exact_value(m)) in self._keys:
            return True
        for ph in self.planes:  # on the plane, and in its polygon
            diff = ph.plane._difference(m)
            if ph.plane._holds(*diff, tol) and _polygon_holds(
                    ph._rows, ph.plane._coord_row(*diff)):
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
        scaled = [p.scale(w) for p, w in zip(self.points, self.weights)]
        return sum(scaled[1:], scaled[0]).rows()


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
            return _finish([p], [1], 1)
    # edge hit; a != b, as q on an edge of length 0 is a vertex hit
    for (i, a), (j, b) in combinations(enumerate(rows), 2):
        if _on_segment_2d(a, b, q):
            k = 0 if b[0] * a[2] != a[0] * b[2] else 1
            t = (q[k] * a[2] - a[k] * wq) * b[2]  # over den
            den = (b[k] * a[2] - a[k] * b[2]) * wq
            return _finish([points[i], points[j]], [den - t, t], den)
    # triangle hit; the weight of v is (orient with q for v) W_v / (d W_q)
    for (i, a), (j, b), (l, c) in combinations(enumerate(rows), 3):
        d = _orient(a, b, c)
        o = (_orient(q, b, c), _orient(a, q, c), _orient(a, b, q))
        if d and all(ok * d >= 0 for ok in o):
            return _finish([points[i], points[j], points[l]],
                           [ok * v[2] for ok, v in zip(o, (a, b, c))], d * wq)
    coords = [(Fraction(x, w), Fraction(y, w)) for x, y, w in rows]
    raise OutsideHullError(_separating_direction(
        convex_hull_2d(coords), (Fraction(xq, wq), Fraction(yq, wq))))


def _separating_direction(hull, q):
    # the normal of the first edge (i, i + 1) with q strictly outside it
    rows, n = _plane_rows(hull + [q]), len(hull)
    for i, j in zip(range(n), [*range(1, n), 0]):
        if _orient(rows[i], rows[j], rows[n]) < 0:
            return (hull[i][1] - hull[j][1], hull[j][0] - hull[i][0])
    a = hull[0] if hull else (0, 0)
    return (q[0] - a[0], q[1] - a[1])


def _finish(pts, nums, den):
    # weights nums / den of one sign; a nonzero one first, in two steps
    pts, nums = zip(*sorted(zip(pts, nums), key=lambda pn: pn[1] == 0))
    head = sum(nums[:2])
    inter = (pts[0] if len(pts) == 1
             else combine(pts[0], pts[1], Fraction(nums[1], head)))
    return CaratheodoryResult(pts, tuple(Fraction(n, den) for n in nums),
                              inter.rows(), Fraction(head, den))
