"""Lamination step, two-step hulls, distances, separator certificates."""
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rohull.core import GeometryError, Mat2, TriPt, combine, det, inner
from rohull.scalar import FLOAT, MixedModeError
from rohull.hulls import (
    LaminateSet,
    RankOneSegment,
    directed_dist_sq,
    hausdorff,
    hausdorff_sq,
    l2_hull,
    lamination_step,
    point_segment_dist_sq,
    point_to_set_dist_sq,
    separator_check,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=16)


def points_only(mats):
    return LaminateSet(points=tuple(mats), segments=(), order=0)


def _outer(u, v):
    return Mat2(u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])


vectors = st.tuples(rationals, rationals).filter(any)


class TestLaminationStep:
    def test_pair_produces_segment(self):
        s = points_only([Mat2.diag(0, 0), Mat2.diag(1, 0)])
        out = lamination_step(s)
        assert len(out.segments) == 1
        assert out.order == 1

    def test_no_connections_no_segments(self):
        # four points of the base-plane cross have pairwise nonzero dets
        pts = [TriPt(x, y, 0).embed()
               for x, y in [(-1, 1), (1, 2), (2, -1), (-2, -2)]]
        out = lamination_step(points_only(pts))
        assert out.segments == ()

    def test_point_segment_offspring(self):
        # the crossing of a point against a segment adds the connecting tie
        s = LaminateSet(
            points=(Mat2.diag(0, 2),),
            segments=(RankOneSegment(Mat2.diag(-1, 0), Mat2.diag(1, 0), 1),),
            order=1)
        out = lamination_step(s)
        pairs = {(seg.a.entries(), seg.b.entries()) for seg in out.segments}
        assert (Mat2.diag(0, 2).entries(), Mat2.diag(0, 0).entries()) in pairs

    def test_monotone(self):
        s = points_only([Mat2.diag(0, 0), Mat2.diag(1, 0), Mat2.diag(1, 1)])
        out = lamination_step(s)
        assert set(s.points) <= set(out.points)

    @given(st.lists(st.tuples(rationals, rationals),
                    min_size=1, max_size=5, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_segments_are_rank_one(self, coords):
        pts = [Mat2.diag(x, y) for x, y in coords]
        out = lamination_step(points_only(pts))
        for seg in out.segments:
            assert det(seg.a - seg.b) == 0
            assert seg.a != seg.b


@st.composite
def point_and_rank_one_segment(draw):
    """A rank-one segment [a, b = a + u v^T] and a point p: at random, in
    one of the two rank-one planes through a (crossing everywhere), or
    rank-one connected to an end (crossing at t = 0 or 1)."""
    a = Mat2(*draw(st.tuples(*[rationals] * 4)))
    u, v, w, z = draw(vectors), draw(vectors), draw(vectors), draw(vectors)
    b = a + _outer(u, v)
    kind = draw(st.sampled_from(["random", "left", "right", "a", "b"]))
    if kind == "random":
        p = Mat2(*draw(st.tuples(*[rationals] * 4)))
    elif kind in ("left", "right"):
        p = a + (_outer(u, w) if kind == "left" else _outer(w, v))
    else:
        p = (a if kind == "a" else b) + _outer(w, z)
    return p, a, b


def _linear_crossings(p, a, b):
    """The ends q of the offspring [p, q]: det(a - p + t (b - a)) = c0 + c1 t
    solved in plain Fractions."""
    a, p = a.entries(), p.entries()
    n = [y - x for x, y in zip(a, b.entries())]

    def det_at(t):
        m = [x - y + t * z for x, y, z in zip(a, p, n)]
        return m[0] * m[3] - m[1] * m[2]

    c0 = det_at(F(0))
    c1 = det_at(F(1)) - c0
    if c1 == 0:
        ts = [F(0), F(1)] if c0 == 0 else []
    else:
        ts = [t for t in [-c0 / c1] if 0 <= t <= 1]
    return [Mat2(*[x + t * z for x, z in zip(a, n)]) for t in ts]


class TestPointSegmentCrossing:
    @given(point_and_rank_one_segment())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_fraction_linear_solve(self, case):
        p, a, b = case
        n = (b - a).entries()
        d = [x - y for x, y in zip(p.entries(), a.entries())]
        # off the line of the segment, dedup keeps every offspring
        assume(any(d[i] * n[j] != d[j] * n[i]
                   for i in range(4) for j in range(i + 1, 4)))
        seg = RankOneSegment(a, b, 1)
        out = lamination_step(LaminateSet((p,), (seg,), 1),
                              segment_segment=False)
        want = [RankOneSegment(p, q, 2) for q in _linear_crossings(p, a, b)]
        assert out.segments == (seg, *want)

    def test_segment_not_rank_one_raises(self):
        s = LaminateSet(
            points=(Mat2.diag(2, 0),),
            segments=(RankOneSegment(Mat2.zero(), Mat2.diag(1, 1), 1),),
            order=1)
        for segment_segment in (True, False):
            with pytest.raises(GeometryError, match="not rank-one"):
                lamination_step(s, segment_segment=segment_segment)

    def test_float_crossings_stay_rank_one(self):
        # non-dyadic floats leave det(b - a) about 1e-17 off zero; a
        # quadratic solve there cancels and joins X1 to X2 (relative det
        # 0.39), which are not rank-one connected
        k = [Mat2(2.0, 1.0, 0.0, 0.0), Mat2(-1 / 3, -2 / 3, 1.0, -1.0),
             Mat2(-1.0, 0.0, 0.0, 0.0)]
        two_steps = lamination_step(lamination_step(points_only(k)))
        for s in (l2_hull(k), two_steps):
            assert s.segments
            for seg in s.segments:
                n = seg.b - seg.a
                assert abs(n.det()) <= 1e-12 * n.frob_sq()


class TestL2Hull:
    def test_collinear_chain_merges(self):
        s = l2_hull([Mat2.diag(0, 0), Mat2.diag(1, 0), Mat2.diag(2, 0)])
        assert len(s.segments) == 1
        ends = {s.segments[0].a, s.segments[0].b}
        assert ends == {Mat2.diag(0, 0), Mat2.diag(2, 0)}

    def test_dedup_tells_denominators_apart(self):
        # parallel segments whose endpoints have the same numerators over
        # different denominators are two segments
        half = F(1, 2)
        segs = (RankOneSegment(Mat2.diag(0, 1), Mat2.diag(1, 1), 1),
                RankOneSegment(Mat2.diag(0, half), Mat2.diag(half, half), 1))
        s = LaminateSet(points=(), segments=segs, order=1)
        out = lamination_step(s, segment_segment=False)
        assert out.segments == segs

    def test_square_fills_ties(self):
        k = [Mat2.diag(0, 0), Mat2.diag(1, 0), Mat2.diag(0, 1),
             Mat2.diag(1, 1)]
        s = l2_hull(k)
        assert s.order == 2
        assert len(s.segments) >= 4


params = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def collinear_families(draw):
    """Segments A + E_l + [s, t] D on two parallel lines (E_0 = 0), as
    (line, s, t, approx) spans with their segments; D is rank one and E_1
    is not a multiple of it."""
    d = _outer(draw(vectors), draw(vectors))
    a = Mat2(*draw(st.tuples(*[rationals] * 4)))
    off = Mat2(*draw(st.tuples(*[rationals] * 4)))
    # the second line is another line: off is no multiple of d
    assume(not (off - d.scale(inner(off, d) / d.frob_sq())).is_zero())
    spans = draw(st.lists(st.tuples(st.integers(0, 1), params, params,
                                    st.booleans()),
                          min_size=1, max_size=8))
    # repeat some spans, reversed or not, with either flag
    for k in draw(st.lists(st.integers(0, len(spans) - 1), max_size=3)):
        line, s, t, _ = spans[k]
        s, t = (t, s) if draw(st.booleans()) else (s, t)
        spans.append((line, s, t, draw(st.booleans())))
    base = (a, a + off)
    segs = [RankOneSegment(base[line] + d.scale(s), base[line] + d.scale(t),
                           1, approx)
            for line, s, t, approx in spans]
    return spans, segs


def _interval_dedup(spans):
    """Indices the dedup keeps, decided on the parameter intervals."""
    kept, seen = [], set()
    for k, (line, s, t, approx) in enumerate(spans):
        key = (line, min(s, t), max(s, t))
        if s != t and (key, approx) not in seen:
            seen.add((key, approx))
            kept.append((k, key))

    def within(big, small):
        return (big[0] == small[0] and big[1] <= small[1]
                and small[2] <= big[2])

    # a span inside another goes, and of two identical spans the earlier
    # one stays
    return [k for i, (k, key) in enumerate(kept)
            if not any(j != i and within(other, key)
                       and not (within(key, other) and i < j)
                       for j, (_, other) in enumerate(kept))]


class TestDedup:
    @given(collinear_families())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_interval_oracle(self, family):
        spans, segs = family
        s = LaminateSet(points=(), segments=tuple(segs), order=1)
        out = lamination_step(s, segment_segment=False)
        assert out.segments == tuple(segs[k] for k in _interval_dedup(spans))


class TestDistances:
    def test_point_segment(self):
        a, b = Mat2.diag(0, 0), Mat2.diag(2, 0)
        assert point_segment_dist_sq(Mat2.diag(1, 1), a, b) == 1
        assert point_segment_dist_sq(Mat2.diag(3, 0), a, b) == 1
        assert point_segment_dist_sq(Mat2.diag(F(3, 2), 0), a, b) == 0

    @given(st.tuples(*[rationals] * 4), st.tuples(*[rationals] * 4),
           st.tuples(*[rationals] * 4),
           st.one_of(st.sampled_from([F(-3, 2), F(0), F(1), F(7, 3)]),
                     rationals),
           st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_point_segment_matches_clamped_foot(self, a, n, w, t0, square,
                                                degenerate):
        a = Mat2(*a)
        n = Mat2.zero() if degenerate else Mat2(*n)
        b = a + n
        w = Mat2(*w)
        nn = n.frob_sq()
        if square and nn != 0:
            # w orthogonal to b - a puts the foot of p exactly at t0
            w = w - n.scale(inner(w, n) / nn)
        p = combine(a, b, t0) + w
        t = F(0) if nn == 0 else min(max(inner(p - a, n) / nn, F(0)), F(1))
        want = (p - combine(a, b, t)).frob_sq()
        got = point_segment_dist_sq(p, a, b)
        assert got == want and type(got) is F

    def test_point_segment_float(self):
        a, b = Mat2(0.1, 0.2, 0.0, 0.3), Mat2(1.7, 0.2, 0.0, 0.3)
        for p in (Mat2(0.5, 1 / 3, 0.0, 0.0), Mat2(-1.0, 0.0, 0.25, 0.3),
                  Mat2(9.0, 0.1, 0.0, 0.3)):
            t = min(max(inner(p - a, b - a) / (b - a).frob_sq(), 0.0), 1.0)
            want = (p - combine(a, b, t)).frob_sq()
            assert repr(point_segment_dist_sq(p, a, b)) == repr(want)
        assert point_segment_dist_sq(Mat2(1.0, 0.0, 0.0, 0.0), a, a) == \
            (Mat2(1.0, 0.0, 0.0, 0.0) - a).frob_sq()

    def test_point_to_set(self):
        s = LaminateSet(
            points=(Mat2.diag(5, 5),),
            segments=(RankOneSegment(Mat2.diag(0, 0), Mat2.diag(2, 0), 1),),
            order=1)
        assert point_to_set_dist_sq(Mat2.diag(1, 1), s) == 1

    @given(st.lists(st.tuples(*[rationals] * 4), max_size=4),
           st.lists(st.tuples(st.tuples(*[rationals] * 4),
                              st.tuples(*[rationals] * 4)), max_size=4),
           st.tuples(*[rationals] * 4), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_point_to_set_is_the_least_fraction(self, pts, segs, p, tie):
        assume(pts or segs)
        p = Mat2(*p)
        pts = [Mat2(*e) for e in pts]
        segs = [RankOneSegment(Mat2(*a), Mat2(*b), 1) for a, b in segs]
        if tie:  # the reflection of a candidate through p is as near
            for q in pts[:1] or [segs[0].a]:
                pts.append(p.scale(2) - q)
        s = LaminateSet(tuple(pts), tuple(segs), 1 if segs else 0)

        def ref_dist_sq(e, f):
            return sum((x - y) ** 2 for x, y in zip(e, f))

        def ref_segment(seg):
            e, a, b = p.entries(), seg.a.entries(), seg.b.entries()
            n = [y - x for x, y in zip(a, b)]
            nn = sum(x * x for x in n)
            t = F(0) if nn == 0 else min(max(
                sum((x - y) * z for x, y, z in zip(e, a, n)) / nn, F(0)),
                F(1))
            return ref_dist_sq(e, [x + t * z for x, z in zip(a, n)])

        want = min([ref_dist_sq(p.entries(), q.entries()) for q in pts]
                   + [ref_segment(seg) for seg in segs])
        got = point_to_set_dist_sq(p, s)
        assert got == want and type(got) is F

    def test_exact_point_against_float_set_raises(self):
        p = Mat2.diag(1, 1)
        e11 = Mat2(1.0, 0.0, 0.0, 0.0)
        seg = RankOneSegment(Mat2.zero(FLOAT), e11, 1)
        for s in (points_only([e11]), LaminateSet((), (seg,), 1)):
            with pytest.raises(MixedModeError):
                point_to_set_dist_sq(p, s)
            with pytest.raises(MixedModeError):  # and the other way round
                point_to_set_dist_sq(e11, points_only([p]))

    def test_hausdorff_singleton(self):
        s1 = points_only([Mat2.diag(0, 0)])
        s2 = points_only([Mat2.diag(3, 4)])
        assert hausdorff_sq(s1, s2) == 25
        assert hausdorff(s1, s2) == 5

    def test_hausdorff_empty_raises(self):
        s = points_only([Mat2.diag(0, 0)])
        empty = LaminateSet(points=(), segments=(), order=0)
        with pytest.raises(GeometryError, match="empty"):
            hausdorff(s, empty)

    def test_directed_asymmetry(self):
        s1 = points_only([Mat2.diag(0, 0)])
        s2 = points_only([Mat2.diag(0, 0), Mat2.diag(0, 10)])
        assert directed_dist_sq(s1, s2) == 0
        assert directed_dist_sq(s2, s1) == 100

    def test_segment_source_sup_is_exact(self):
        # sup over a segment of the distance to a two-point target peaks
        # at the envelope crossing, not at an endpoint
        seg = RankOneSegment(Mat2.diag(-1, 0), Mat2.diag(1, 0), 1)
        src = LaminateSet(points=(), segments=(seg,), order=1)
        tgt = points_only([Mat2.diag(-1, 0), Mat2.diag(1, 0)])
        assert directed_dist_sq(src, tgt) == 1

    @given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=4),
           st.lists(st.tuples(rationals, rationals), min_size=1, max_size=4),
           st.lists(st.tuples(rationals, rationals), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_hausdorff_metric_properties(self, ca, cb, cc):
        sa = points_only([Mat2.diag(x, y) for x, y in ca])
        sb = points_only([Mat2.diag(x, y) for x, y in cb])
        sc = points_only([Mat2.diag(x, y) for x, y in cc])
        dab, dba = hausdorff(sa, sb), hausdorff(sb, sa)
        assert dab == dba
        assert dab >= 0
        assert hausdorff(sa, sa) == 0
        assert hausdorff(sa, sc) <= dab + hausdorff(sb, sc)


class TestSeparatorCheck:
    def test_base_plane_cross_passes(self):
        pts = [TriPt(x, y, 0) for x, y in [(-3, 1), (1, 3), (3, -1), (-1, -3)]]
        w = separator_check(pts, "tri")
        assert all(d != 0 for d in w.pairwise_dets)

    def test_rank_one_pair_fails(self):
        pts = [TriPt(0, 0, 0), TriPt(1, 0, 0), TriPt(2, 3, 0)]
        with pytest.raises(GeometryError, match="separator fails"):
            separator_check(pts, "tri")

    def test_nonzero_z_rejected(self):
        with pytest.raises(GeometryError):
            separator_check([TriPt(1, 2, 1), TriPt(2, 1, 0)], "tri")
