"""Lamination hull iterates, Hausdorff distances, and separator certificates.

A hull iterate is represented as a finite union of points and rank-one
segments.  Along a rank-one segment the determinant of the difference to a
point is affine, so each point-segment pair has one linear crossing (or none,
or the whole segment), and a segment that is not rank-one raises
GeometryError.  Point-point and point-segment offspring are exact;
segment-segment offspring are sampled and flagged approximate.  Exact
distances to a set are compared as integer ratios; only the least becomes a
Fraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    GeometryError,
    Mat2,
    TriPt,
    SymPt,
    combine,
    det_cross,
    inner,
    rank2x2,
    rank_one_connected,
)
from .scalar import DEFAULT_TOL, EXACT, FLOAT, Scalar, scalar_sqrt

# points sampled on the first segment of a segment-segment pair
SEGMENT_SAMPLES = 64
# a segment's sup distance to a set with segments is sampled at
# t = k / SUP_SAMPLES, 0 < k < SUP_SAMPLES
SUP_SAMPLES = 33


@dataclass(frozen=True)
class RankOneSegment:
    """Closed segment [a, b] whose endpoints differ by a rank-<=1 matrix."""

    a: Mat2
    b: Mat2
    generation: int
    approx: bool = False


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

    def is_empty(self) -> bool:
        return not self.points and not self.segments


def _point_segment_offspring(p: Mat2, seg: RankOneSegment, generation: int,
                             tol: Scalar):
    """Segments from p to the rank-one crossing points on seg.

    On a rank-one segment det(a - p + t n) = det(a - p) + t det_cross(a - p, n)
    is affine in t, so it vanishes once, nowhere, or everywhere.
    """
    m = seg.a - p
    n = seg.b - seg.a
    if rank2x2(n, tol) == 2:
        raise GeometryError("segment is not rank-one")
    c0 = m.det()
    c1 = det_cross(m, n)
    if c1 == 0:
        # det is constant along seg: zero means the whole segment is rank-one
        # visible from p, and the extreme rungs are kept
        ends = (seg.a, seg.b) if c0 == 0 else ()
    else:
        t = -c0 / c1
        ends = (combine(seg.a, seg.b, t),) if 0 <= t <= 1 else ()
    return [RankOneSegment(p, q, generation, seg.approx)
            for q in ends if q != p]


def _segment_contains(big: RankOneSegment, small: RankOneSegment) -> bool:
    """True iff both endpoints of small, hence small, lie on big (exact)."""
    return (_point_segment_ratio(small.a, big.a, big.b)[0] == 0
            and _point_segment_ratio(small.b, big.a, big.b)[0] == 0)


def _stored(m: Mat2):
    # one set has one mode, and exact storage is in lowest terms, so equal
    # matrices have equal stored numbers
    return m._n11, m._n12, m._n21, m._n22, m._d


def _dedup_segments(segments):
    # drop zero-length, exact duplicates, and exact segments contained in a
    # longer collinear exact segment
    kept, ends, seen = [], [], set()  # ends: each kept one's endpoint set
    for seg in segments:
        if seg.a == seg.b:
            continue
        key = frozenset([_stored(seg.a), _stored(seg.b)]), seg.approx
        if key in seen:
            continue
        seen.add(key)
        kept.append(seg)
        ends.append(key[0])
    if any(s.a.mode == FLOAT for s in kept):
        return kept
    # two kept segments contain each other only with the same endpoints
    # (and other approx flags); of those, the earlier one stays
    return [seg for i, seg in enumerate(kept)
            if not any(i != j and _segment_contains(other, seg)
                       and not (i < j and ends[i] == ends[j])
                       for j, other in enumerate(kept))]


def lamination_step(s: LaminateSet, tol: Scalar = DEFAULT_TOL,
                    segment_segment: bool = True) -> LaminateSet:
    """One application of the segment-adding step.

    Point-point rank-one pairs and point-segment crossings contribute exact
    segments; segment-segment offspring are sampled at SEGMENT_SAMPLES
    points of the first segment and flagged approximate.  A segment whose
    ends are not rank-one connected raises GeometryError.
    """
    gen = s.order + 1
    new = []
    pts = list(s.points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                continue
            if rank_one_connected(pts[i], pts[j], tol):
                new.append(RankOneSegment(pts[i], pts[j], gen))
    for p in pts:
        for seg in s.segments:
            new.extend(_point_segment_offspring(p, seg, gen, tol))
    if segment_segment:
        segs = list(s.segments)
        for i in range(len(segs)):
            for j in range(len(segs)):
                if i == j:
                    continue
                s1, s2 = segs[i], segs[j]
                for k in range(SEGMENT_SAMPLES):
                    t = Fraction(k, SEGMENT_SAMPLES - 1) \
                        if s1.a.mode == EXACT else k / (SEGMENT_SAMPLES - 1)
                    p = combine(s1.a, s1.b, t)
                    for child in _point_segment_offspring(p, s2, gen, tol):
                        new.append(RankOneSegment(child.a, child.b, gen, True))
    segments = _dedup_segments(list(s.segments) + new)
    return LaminateSet(points=s.points, segments=tuple(segments), order=gen)


def l2_hull(k, tol: Scalar = DEFAULT_TOL) -> LaminateSet:
    """Order-2 lamination iterate of a finite set, exact point/segment steps."""
    s = LaminateSet(points=tuple(k), order=0)
    s = lamination_step(s, tol, segment_segment=False)
    return lamination_step(s, tol, segment_segment=False)


# --- distances -----------------------------------------------------------


def point_point_dist_sq(p: Mat2, q: Mat2) -> Scalar:
    return (p - q).frob_sq()


def _dot(m: Mat2, n: Mat2):
    return (m._n11 * n._n11 + m._n12 * n._n12
            + m._n21 * n._n21 + m._n22 * n._n22)


def _point_point_ratio(p: Mat2, q: Mat2):
    """|p - q|^2 of exact matrices as ints (numerator, denominator > 0)."""
    v = p - q
    return _dot(v, v), v._d * v._d


def _point_segment_ratio(p: Mat2, a: Mat2, b: Mat2):
    """The squared distance from p to [a, b] as in _point_point_ratio."""
    m, n = p - a, b - a
    # the foot of p on line ab is at t = (m.n) dn / ((n.n) dm): compare ints
    mn, dm = _dot(m, n), m._d
    if mn <= 0:
        return _dot(m, m), dm * dm
    nn = _dot(n, n)
    if mn * n._d >= nn * dm:
        return _point_point_ratio(p, b)
    return _dot(m, m) * nn - mn * mn, dm * dm * nn


def point_segment_dist_sq(p: Mat2, a: Mat2, b: Mat2) -> Scalar:
    if a._d is not None:
        return Fraction(*_point_segment_ratio(p, a, b))
    m, n = p - a, b - a
    dd = n.frob_sq()
    if dd == 0:
        return m.frob_sq()
    t = min(max(inner(m, n) / dd, 0.0), 1.0)
    return (p - combine(a, b, t)).frob_sq()


def point_to_set_dist_sq(p: Mat2, s: LaminateSet) -> Scalar:
    if s.is_empty():
        raise GeometryError("Hausdorff undefined for empty set")
    if p._d is None:
        return min([point_point_dist_sq(p, q) for q in s.points]
                   + [point_segment_dist_sq(p, seg.a, seg.b)
                      for seg in s.segments])
    # exact: keep the least (numerator, denominator) by cross-multiplying
    ratios = [_point_point_ratio(p, q) for q in s.points]
    ratios += [_point_segment_ratio(p, seg.a, seg.b) for seg in s.segments]
    n, d = ratios[0]
    for n2, d2 in ratios:
        if n2 * d < n * d2:
            n, d = n2, d2
    return Fraction(n, d)


def point_to_set_distance(p: Mat2, s: LaminateSet) -> Scalar:
    return scalar_sqrt(point_to_set_dist_sq(p, s))


def _segment_sup_dist_sq(seg: RankOneSegment, target: LaminateSet) -> Scalar:
    """sup over the segment of the distance to the target set.

    Exact when the target is a pure point set: the squared distance to each
    point is quadratic in t with a common leading coefficient, so envelope
    breakpoints are rational crossings; with target segments present, uniform
    samples are added and the result is a lower approximation.
    """
    a, b = seg.a, seg.b
    zero = Fraction(0) if a.mode == EXACT else 0.0
    one = Fraction(1) if a.mode == EXACT else 1.0
    candidates = [zero, one]
    pts = target.points
    d = b - a
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            # |P(t)-pi|^2 - |P(t)-pj|^2 is linear in t
            u = pts[j] - pts[i]
            c1 = 2 * inner(d, u)
            c0 = 2 * inner(a, u) - (pts[j].frob_sq() - pts[i].frob_sq())
            if c1 != 0:
                t = -c0 / c1
                if zero < t < one:
                    candidates.append(t)
    if target.segments or a.mode == FLOAT:
        for k in range(1, SUP_SAMPLES):
            candidates.append(Fraction(k, SUP_SAMPLES) if a.mode == EXACT
                              else k / SUP_SAMPLES)
    return max([point_to_set_dist_sq(combine(a, b, t), target)
                for t in candidates])


def directed_dist_sq(src: LaminateSet, target: LaminateSet) -> Scalar:
    """Squared directed Hausdorff distance sup_{x in src} dist(x, target)."""
    if src.is_empty() or target.is_empty():
        raise GeometryError("Hausdorff undefined for empty set")
    return max([point_to_set_dist_sq(p, target) for p in src.points]
               + [_segment_sup_dist_sq(seg, target) for seg in src.segments])


def hausdorff_sq(s1: LaminateSet, s2: LaminateSet) -> Scalar:
    return max(directed_dist_sq(s1, s2), directed_dist_sq(s2, s1))


def hausdorff(s1: LaminateSet, s2: LaminateSet) -> Scalar:
    """Hausdorff distance; exact when the squared value is a rational square."""
    return scalar_sqrt(hausdorff_sq(s1, s2))


def directed_distance(s1: LaminateSet, s2: LaminateSet) -> Scalar:
    return scalar_sqrt(directed_dist_sq(s1, s2))


# --- separator certificates ----------------------------------------------


@dataclass(frozen=True)
class SeparatorWitness:
    boundary_points: tuple
    subspace: str
    pairwise_dets: tuple[Scalar, ...]


def separator_check(boundary, subspace: str) -> SeparatorWitness:
    """Certify that {z > 0} union the boundary points is lamination convex.

    Segments joining a boundary point to the open half-space stay inside it
    except at the endpoint, so only boundary-boundary rank-one connections can
    break lamination convexity; those are excluded by nonzero pairwise dets.
    """
    if subspace not in ("tri", "sym"):
        raise GeometryError(f"unknown subspace {subspace!r}")
    cls = TriPt if subspace == "tri" else SymPt
    pts = []
    for p in boundary:
        if not isinstance(p, cls):
            raise GeometryError(f"boundary point {p!r} not in {subspace} subspace")
        if p.z != 0:
            raise GeometryError("boundary points must have z = 0")
        pts.append(p)
    dets = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = (pts[i].embed() - pts[j].embed()).det()
            if d == 0:
                raise GeometryError(
                    "separator fails: rank-one connection in boundary set "
                    f"between points {i} and {j}")
            dets.append(d)
    return SeparatorWitness(tuple(pts), subspace, tuple(dets))
