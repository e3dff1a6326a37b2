"""Lamination hull iterates, Hausdorff distances, and separator certificates.

A hull iterate is represented as a finite union of points and rank-one
segments.  Along a rank-one segment the determinant of the difference to a
point is affine, so each point-segment pair has one linear crossing (or none,
or the whole segment), and a segment that is not rank-one raises
GeometryError.  A lamination step joins point-point and point-segment
pairs, exactly; segment pairs add nothing (ROADMAP item 4).

A set holds its matrices once more as core.int_rows, int rows over one
common denominator D, a float at its exact value: a point as the int
4-vector of its entries times D, a segment [a, b] as (A, N = B - A, |N|^2).
Distances, the dedup of a step's segments and its point-segment crossings
run on these ints; only the least distance becomes a Fraction.  A float
set's distances and crossings are those exact values rounded once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .core import (
    GeometryError,
    Mat2,
    _make,
    exact_value,
    int_rows,
    rank2x2,
    rank_one_connected,
)
from .scalar import MixedModeError, Scalar, scalar_sqrt, to_float

# a segment's sup distance to a set with segments is sampled at
# t = k / SUP_SAMPLES, 0 < k < SUP_SAMPLES
SUP_SAMPLES = 33


@dataclass(frozen=True)
class RankOneSegment:
    """Closed segment [a, b] whose endpoints differ by a rank-<=1 matrix."""

    a: Mat2
    b: Mat2
    generation: int


def _exact_rows(points, ends):
    """(D, point rows, segment rows (A, N, |N|^2), float) of matrices and
    (a, b) ends at their exact values, over their common denominator D;
    float tells whether they are floats.  Exact and float matrices mixed
    raise MixedModeError."""
    mats = [*points, *(m for ab in ends for m in ab)]
    modes = {m._d is None for m in mats}
    if len(modes) > 1:
        raise MixedModeError("cannot mix exact and float scalars")
    big, rows = int_rows(mats)
    segs, pairs = [], iter(rows[len(points):])
    for ra, rb in zip(pairs, pairs):
        n = (rb[0] - ra[0], rb[1] - ra[1], rb[2] - ra[2], rb[3] - ra[3])
        segs.append((ra, n, n[0] ** 2 + n[1] ** 2 + n[2] ** 2 + n[3] ** 2))
    return big, tuple(rows[:len(points)]), tuple(segs), True in modes


@dataclass(frozen=True)
class LaminateSet:
    points: tuple[Mat2, ...]
    segments: tuple[RankOneSegment, ...] = ()
    order: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.order < 0:
            raise GeometryError("order must be nonnegative")
        if self.order == 0 and self.segments:
            raise GeometryError("order-0 sets have no segments")

    @cached_property
    def _rows(self):
        # not a field: equality, hash and repr stay those of the values
        return _exact_rows(self.points, [(g.a, g.b) for g in self.segments])

    def is_empty(self) -> bool:
        return not self.points and not self.segments


def _point_segment_offspring(s: LaminateSet, generation: int):
    """Segments from each point p of s to its rank-one crossings on each
    segment [a, b] of s, point by point.

    On a rank-one segment det(a - p + t n) = c0 + t c1, with n = b - a,
    c0 = det(a - p) and c1 = det_cross(a - p, n), is affine in t, so it
    vanishes once, nowhere, or everywhere.  c0 and c1, both times D^2, come
    off the set's rows, and the crossing a - (c0 / c1) n is the row
    c1 A - c0 N over c1 D; a float set's crossing is rounded once.
    """
    if any(rank2x2(g.b - g.a) == 2 for g in s.segments):
        raise GeometryError("segment is not rank-one")
    big, points, segs, rounded = s._rows
    out = []
    for p, (x1, x2, x3, x4) in zip(s.points, points):
        for g, (a, n, _) in zip(s.segments, segs):
            m1, m2, m3, m4 = a[0] - x1, a[1] - x2, a[2] - x3, a[3] - x4
            c0 = m1 * m4 - m2 * m3
            c1 = m1 * n[3] + n[0] * m4 - m2 * n[2] - n[1] * m3
            if c1 < 0:
                c0, c1 = -c0, -c1
            if c1 == 0:
                # det is constant along g: zero means the whole segment is
                # rank-one visible from p, and the extreme rungs are kept
                ends = (g.a, g.b) if c0 == 0 else ()
            elif 0 <= -c0 <= c1:
                q = _make(c1 * big, *(c1 * x - c0 * y for x, y in zip(a, n)))
                ends = (Mat2(*map(float, q.entries())) if rounded else q,)
            else:
                ends = ()
            out.extend(RankOneSegment(p, q, generation)
                       for q in ends if q != p)
    return out


def _on_segment(x, seg) -> bool:
    """True iff the int row x lies on the segment row (A, N, |N|^2) over
    the same denominator: with m = x - A, 0 <= m.N <= |N|^2 and m is
    parallel to N."""
    (a1, a2, a3, a4), (n1, n2, n3, n4), nn = seg
    m1, m2, m3, m4 = x[0] - a1, x[1] - a2, x[2] - a3, x[3] - a4
    mn = m1 * n1 + m2 * n2 + m3 * n3 + m4 * n4
    return (0 <= mn <= nn
            and (m1 * m1 + m2 * m2 + m3 * m3 + m4 * m4) * nn == mn * mn)


def _dedup_segments(segments):
    """Drop zero-length and repeated segments, and segments that lie on
    another kept segment, at their exact values; the rest keep their
    order."""
    segs = _exact_rows((), [(g.a, g.b) for g in segments])[2]
    # equal matrices have equal rows over one denominator
    ends = [(a, (a[0] + n[0], a[1] + n[1], a[2] + n[2], a[3] + n[3]))
            for a, n, _ in segs]
    kept, seen = [], set()
    for i, (a, b) in enumerate(ends):
        key = frozenset([a, b])
        if a != b and key not in seen:
            seen.add(key)
            kept.append(i)
    # kept segments have distinct endpoint sets, so none lies on another
    # both ways
    return [segments[i] for i in kept
            if not any(j != i and _on_segment(ends[i][0], segs[j])
                       and _on_segment(ends[i][1], segs[j]) for j in kept)]


def lamination_step(s: LaminateSet) -> LaminateSet:
    """One application of the segment-adding step.

    Point-point rank-one pairs and point-segment crossings, rounded once in
    a float set, contribute segments; segment pairs add nothing.  A segment
    whose ends are not rank-one connected raises GeometryError.
    """
    gen = s.order + 1
    new = [RankOneSegment(a, b, gen) for a, b in combinations(s.points, 2)
           if a != b and rank_one_connected(a, b)]
    if s.points and s.segments:
        new.extend(_point_segment_offspring(s, gen))
    segments = _dedup_segments(list(s.segments) + new)
    return LaminateSet(points=s.points, segments=tuple(segments), order=gen)


def l2_hull(k) -> LaminateSet:
    """Order-2 lamination iterate of a finite set: two lamination steps."""
    return lamination_step(lamination_step(LaminateSet(tuple(k))))


# --- distances -----------------------------------------------------------


def _exact_dist_sq(p, dp, rows) -> Fraction:
    """The squared distance from the int row p over dp to the points and
    segments of _exact_rows, as a Fraction.

    Over dp * D, p - X is m = p * D - X * dp.  The foot of p on a segment
    (A, N, |N|^2) is at t = m.N / (dp |N|^2), so it is clamped to A when
    m.N <= 0 and to B when m.N >= dp |N|^2; in between the squared distance
    is (|m|^2 |N|^2 - (m.N)^2) / |N|^2, over (dp D)^2 like every candidate.
    The least numerator-denominator pair is kept by cross-multiplying.
    """
    big, points, segments, _ = rows
    p1, p2, p3, p4 = p[0] * big, p[1] * big, p[2] * big, p[3] * big
    num, den = None, 1
    for x1, x2, x3, x4 in points:
        m1, m2, m3, m4 = p1 - x1 * dp, p2 - x2 * dp, p3 - x3 * dp, p4 - x4 * dp
        mm = m1 * m1 + m2 * m2 + m3 * m3 + m4 * m4
        if num is None or mm * den < num:
            num, den = mm, 1
    for (a1, a2, a3, a4), (n1, n2, n3, n4), nn in segments:
        m1, m2, m3, m4 = p1 - a1 * dp, p2 - a2 * dp, p3 - a3 * dp, p4 - a4 * dp
        mm = m1 * m1 + m2 * m2 + m3 * m3 + m4 * m4
        mn = m1 * n1 + m2 * n2 + m3 * n3 + m4 * n4
        if mn <= 0:
            n, d = mm, 1
        elif mn >= dp * nn:  # |m - dp N|^2
            n, d = mm - 2 * dp * mn + dp * dp * nn, 1
        else:
            n, d = mm * nn - mn * mn, nn
        if num is None or n * den < num * d:
            num, den = n, d
    scale = dp * big
    return Fraction(num, den * scale * scale)


def exact_set(s: LaminateSet) -> LaminateSet:
    """The float set s at the exact values of its floats."""
    if not s._rows[3]:
        raise MixedModeError("cannot mix exact and float scalars")
    return LaminateSet(
        [exact_value(p) for p in s.points],
        [RankOneSegment(exact_value(g.a), exact_value(g.b), g.generation)
         for g in s.segments], s.order)


def point_segment_dist_sq(p: Mat2, a: Mat2, b: Mat2) -> Scalar:
    return point_to_set_dist_sq(
        p, LaminateSet((), (RankOneSegment(a, b, 1),), 1))


def point_to_set_dist_sq(p: Mat2, s: LaminateSet) -> Scalar:
    if s.is_empty():
        raise GeometryError("Hausdorff undefined for empty set")
    rows = s._rows
    if (p._d is None) != rows[3]:
        raise MixedModeError("cannot mix exact and float scalars")
    q = exact_value(p)
    d = _exact_dist_sq((q._n11, q._n12, q._n21, q._n22), q._d, rows)
    return to_float(d) if rows[3] else d


def _segment_sup_dist_sq(a, n, ds, rows) -> Fraction:
    """sup over the segment (A + t N) / ds, 0 <= t <= 1, of the squared
    distance to the points and segments of _exact_rows.

    Exact for points only: with U = X - Y for two of them, X and Y over D,
    their squared distances differ by (c0 + c1 t) / (ds D^2), where c0 =
    ds (|X|^2 - |Y|^2) - 2 D A.U and c1 = -2 D N.U, so their envelope breaks
    at t = -c0 / c1.  With segments, t = k / SUP_SAMPLES are added and the
    sup is a lower bound (ROADMAP item 6); t = r / s is s A + r N over s ds.
    """
    big, points, segments, _ = rows
    ts = [(0, 1), (1, 1)]
    for x, y in combinations(points, 2):
        u = [xi - yi for xi, yi in zip(x, y)]
        c0 = (ds * sum(xi * xi - yi * yi for xi, yi in zip(x, y))
              - 2 * big * sum(ai * ui for ai, ui in zip(a, u)))
        c1 = -2 * big * sum(ni * ui for ni, ui in zip(n, u))
        if c1 < 0:
            c0, c1 = -c0, -c1
        if 0 < -c0 < c1:
            ts.append((-c0, c1))
    if segments:
        ts += [(k, SUP_SAMPLES) for k in range(1, SUP_SAMPLES)]
    return max(_exact_dist_sq([s * ai + r * ni for ai, ni in zip(a, n)],
                              s * ds, rows) for r, s in ts)


def directed_dist_sq(src: LaminateSet, target: LaminateSet) -> Scalar:
    """Squared directed Hausdorff distance sup_{x in src} dist(x, target),
    on both sets' rows; of float sets, the exact value rounded once."""
    if src.is_empty() or target.is_empty():
        raise GeometryError("Hausdorff undefined for empty set")
    ds, points, segments, rounded = src._rows
    rows = target._rows
    if rounded != rows[3]:
        raise MixedModeError("cannot mix exact and float scalars")
    d = max([_exact_dist_sq(p, ds, rows) for p in points]
            + [_segment_sup_dist_sq(a, n, ds, rows) for a, n, _ in segments])
    return to_float(d) if rounded else d


def hausdorff_sq(s1: LaminateSet, s2: LaminateSet) -> Scalar:
    return max(directed_dist_sq(s1, s2), directed_dist_sq(s2, s1))


def hausdorff(s1: LaminateSet, s2: LaminateSet) -> Scalar:
    """Hausdorff distance; exact when the squared value is a rational square."""
    return scalar_sqrt(hausdorff_sq(s1, s2))


# --- separator certificates ----------------------------------------------


@dataclass(frozen=True)
class SeparatorWitness:
    boundary_points: tuple[Mat2, ...]
    pairwise_dets: tuple[Scalar, ...]


def separator_check(boundary) -> SeparatorWitness:
    """Certify that {z > 0} union the boundary points is lamination convex.

    The boundary points lie on z = 0, the diagonal matrices of both the
    upper-triangular and the symmetric subspace.  Segments joining a
    boundary point to the open half-space stay inside it except at the
    endpoint, so only boundary-boundary rank-one connections can break
    lamination convexity; those are excluded by pairwise differences of
    rank 2 (``rank2x2``).
    """
    pts = tuple(boundary)
    for p in pts:
        if p.a12 != 0 or p.a21 != 0:
            raise GeometryError(
                f"boundary point {p!r} is not diagonal (z = 0)")
    dets = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = pts[i] - pts[j]
            if rank2x2(diff) < 2:
                raise GeometryError(
                    "separator fails: rank-one connection in boundary set "
                    f"between points {i} and {j}")
            dets.append(diff.det())
    return SeparatorWitness(pts, tuple(dets))
