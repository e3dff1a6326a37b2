"""Lamination step, two-step hulls, distances, separator certificates."""
import math
import pickle
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rohull.core import GeometryError, Mat2, combine, det
from rohull.scalar import FLOAT, MixedModeError, to_float
from rohull.hulls import (
    SUP_SAMPLES,
    LaminateSet,
    RankOneSegment,
    directed_dist_sq,
    exact_set,
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


def inner(x, y):
    """The Frobenius inner product of two exact matrices."""
    return sum(a * b for a, b in zip(x.entries(), y.entries()))


vectors = st.tuples(rationals, rationals).filter(any)


class TestLaminationStep:
    def test_pair_produces_segment(self):
        s = points_only([Mat2.diag(0, 0), Mat2.diag(1, 0)])
        out = lamination_step(s)
        assert len(out.segments) == 1
        assert out.order == 1

    def test_no_connections_no_segments(self):
        # four points of the base-plane cross have pairwise nonzero dets
        pts = [Mat2.diag(x, y)
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
        out = lamination_step(LaminateSet((p,), (seg,), 1))
        want = [RankOneSegment(p, q, 2) for q in _linear_crossings(p, a, b)]
        assert out.segments == (seg, *want)

    def test_segment_not_rank_one_raises(self):
        s = LaminateSet(
            points=(Mat2.diag(2, 0),),
            segments=(RankOneSegment(Mat2.zero(), Mat2.diag(1, 1), 1),),
            order=1)
        with pytest.raises(GeometryError, match="not rank-one"):
            lamination_step(s)

    def test_float_crossings_stay_rank_one(self):
        # non-dyadic floats leave det(b - a) about 1e-17 off zero; a
        # quadratic solve there cancels and joins X1 to X2 (relative det
        # 0.39), which are not rank-one connected
        k = [Mat2(2.0, 1.0, 0.0, 0.0), Mat2(-1 / 3, -2 / 3, 1.0, -1.0),
             Mat2(-1.0, 0.0, 0.0, 0.0)]
        s = l2_hull(k)
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
        out = lamination_step(s)
        assert out.segments == segs

    def test_float_pairs_beyond_the_float_range(self):
        # the det of a diag(1e200, 1e200) difference overflows; it is
        # rank two all the same, and four equal entries are rank one
        zero = Mat2.zero(FLOAT)
        assert l2_hull([zero, Mat2(1e200, 0.0, 0.0, 1e200)]).segments == ()
        assert len(l2_hull([zero, Mat2(*[1e200] * 4)]).segments) == 1

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
    (line, s, t) spans with their segments; D is rank one and E_1
    is not a multiple of it."""
    d = _outer(draw(vectors), draw(vectors))
    a = Mat2(*draw(st.tuples(*[rationals] * 4)))
    off = Mat2(*draw(st.tuples(*[rationals] * 4)))
    # the second line is another line: off is no multiple of d
    assume(not (off - d.scale(inner(off, d) / d.frob_sq())).is_zero())
    spans = draw(st.lists(st.tuples(st.integers(0, 1), params, params),
                          min_size=1, max_size=8))
    # repeat some spans, reversed or not
    for k in draw(st.lists(st.integers(0, len(spans) - 1), max_size=3)):
        line, s, t = spans[k]
        spans.append((line, *((t, s) if draw(st.booleans()) else (s, t))))
    base = (a, a + off)
    segs = [RankOneSegment(base[line] + d.scale(s), base[line] + d.scale(t), 1)
            for line, s, t in spans]
    return spans, segs


def _interval_dedup(spans):
    """Indices the dedup keeps, decided on the parameter intervals."""
    kept, seen = [], set()
    for k, (line, s, t) in enumerate(spans):
        key = (line, min(s, t), max(s, t))
        if s != t and key not in seen:
            seen.add(key)
            kept.append((k, key))

    def within(big, small):
        return (big[0] == small[0] and big[1] <= small[1]
                and small[2] <= big[2])

    # a span inside another goes; kept spans are distinct
    return [k for i, (k, key) in enumerate(kept)
            if not any(j != i and within(other, key)
                       for j, (_, other) in enumerate(kept))]


def _ref_step(points, segments, gen):
    """lamination_step on entry 4-tuples in plain Fractions: segments
    (a, b, generation) in first-seen order, containment by collinearity
    and the interval of the foot."""
    def sub(x, y):
        return tuple(u - v for u, v in zip(x, y))

    def det4(m):
        return m[0] * m[3] - m[1] * m[2]

    def dot(x, y):
        return sum(u * v for u, v in zip(x, y))

    new = [(p, q, gen) for i, p in enumerate(points) for q in points[i + 1:]
           if p != q and det4(sub(p, q)) == 0]
    for p in points:
        for a, b, _ in segments:
            # det(a - p + t (b - a)) = c0 + c1 t
            n, m = sub(b, a), sub(a, p)
            c0 = det4(m)
            c1 = det4(tuple(x + y for x, y in zip(m, n))) - c0 - det4(n)
            if c1 == 0:
                ends = [a, b] if c0 == 0 else []
            else:
                t = -c0 / c1
                ends = ([tuple(x + t * y for x, y in zip(a, n))]
                        if 0 <= t <= 1 else [])
            new += [(p, q, gen) for q in ends if q != p]
    kept = []
    for a, b, g in list(segments) + new:
        if a != b and not any({a, b} == {c, d} for c, d, _ in kept):
            kept.append((a, b, g))

    def on(x, seg):
        m, n = sub(x, seg[0]), sub(seg[1], seg[0])
        collinear = all(m[i] * n[j] == m[j] * n[i]
                        for i in range(4) for j in range(i + 1, 4))
        return collinear and 0 <= dot(m, n) <= dot(n, n)

    return [seg for seg in kept
            if not any(o is not seg and on(seg[0], o) and on(seg[1], o)
                       for o in kept)]


def _as_tuples(s):
    return [(g.a.entries(), g.b.entries(), g.generation) for g in s.segments]


grid = st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)])


@st.composite
def chains_and_points(draw):
    """Diagonal points on a grid of unequal denominators, which share rows
    and columns, and a rank-one chain a + (k / q) d of three or four
    points, with the chain's own denominator q."""
    pts = [Mat2.diag(x, y) for x, y in draw(
        st.lists(st.tuples(grid, grid), max_size=4, unique=True))]
    a = Mat2(*draw(st.tuples(*[rationals] * 4)))
    d = _outer(draw(vectors), draw(vectors))
    q = draw(st.integers(1, 5))
    ks = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=4,
                       unique=True))
    return pts + [a + d.scale(F(k, q)) for k in ks]


class TestStepOracle:
    @given(chains_and_points())
    @settings(max_examples=60, deadline=None)
    def test_step_and_l2_hull_match_the_fraction_oracle(self, pts):
        entries = [m.entries() for m in pts]
        first = _ref_step(entries, [], 1)
        s1 = lamination_step(points_only(pts))
        assert _as_tuples(s1) == first
        s2 = l2_hull(pts)
        assert _as_tuples(s2) == _ref_step(entries, first, 2)
        assert s2.order == 2 and s2.points == tuple(pts)


class TestDedup:
    @given(collinear_families())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_interval_oracle(self, family):
        spans, segs = family
        s = LaminateSet(points=(), segments=tuple(segs), order=1)
        out = lamination_step(s)
        assert out.segments == tuple(segs[k] for k in _interval_dedup(spans))

    def test_float_drops_repeats_and_contained(self):
        # 0.3 lies between 0.1 and 0.7 at the floats' exact values too
        a, b, c = (Mat2(x, 0.0, 0.0, 0.5) for x in (0.1, 0.7, 0.3))
        seg, inside = RankOneSegment(a, b, 1), RankOneSegment(a, c, 1)
        segs = (seg, RankOneSegment(a, a, 1), RankOneSegment(a, b, 1),
                RankOneSegment(b, a, 1), inside)
        out = lamination_step(LaminateSet((), segs, 1))
        assert out.segments == (seg,)


def _ref_point_to_set(p, pts, segs):
    """The squared distance from p to points and segments, on the entries
    in plain Fractions, with the foot of p clamped to each segment."""
    e = p.entries()

    def dist_sq(f):
        return sum((x - y) ** 2 for x, y in zip(e, f))

    def to_segment(seg):
        a, b = seg.a.entries(), seg.b.entries()
        n = [y - x for x, y in zip(a, b)]
        nn = sum(x * x for x in n)
        t = F(0) if nn == 0 else min(max(
            sum((x - y) * z for x, y, z in zip(e, a, n)) / nn, F(0)), F(1))
        return dist_sq([x + t * z for x, z in zip(a, n)])

    return min([dist_sq(q.entries()) for q in pts]
               + [to_segment(seg) for seg in segs])


def _ref_segment_sup(seg, target):
    """The sup's candidates enumerated on Mat2 and Fraction values: both
    ends, each crossing of two target points' squared distances, and
    t = k / SUP_SAMPLES when the target has segments."""
    a, b = seg.a, seg.b
    ts = [F(0), F(1)]
    for x, y in combinations(target.points, 2):
        u = y - x
        c1 = 2 * inner(b - a, u)
        c0 = 2 * inner(a, u) - (y.frob_sq() - x.frob_sq())
        if c1 != 0 and 0 < -c0 / c1 < 1:
            ts.append(-c0 / c1)
    if target.segments:
        ts += [F(k, SUP_SAMPLES) for k in range(1, SUP_SAMPLES)]
    return max(_ref_point_to_set(combine(a, b, t), target.points,
                                 target.segments) for t in ts)


def _ref_directed(src, target):
    return max([_ref_point_to_set(p, target.points, target.segments)
                for p in src.points]
               + [_ref_segment_sup(g, target) for g in src.segments])


@st.composite
def laminate_sets(draw, entries=rationals, segments=st.booleans()):
    """A set of up to 3 points and, when ``segments`` draws True, 1 or 2
    rank-one segments a + u v^T; never empty."""
    mats = st.tuples(*[entries] * 4)
    vecs = st.tuples(entries, entries).filter(any)
    with_segments = draw(segments)
    pts = draw(st.lists(mats, min_size=0 if with_segments else 1,
                        max_size=3))
    segs = draw(st.lists(st.tuples(mats, vecs, vecs),
                         min_size=int(with_segments),
                         max_size=2 * with_segments))
    return LaminateSet(
        tuple(Mat2(*e) for e in pts),
        tuple(RankOneSegment(Mat2(*a), Mat2(*a) + _outer(u, v), 1)
              for a, u, v in segs), int(with_segments))


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
        # the distance at the exact values of the floats, rounded once, at
        # scales where its square overflows or underflows
        ends = ((0.1, 0.2, 0.0, 0.3), (1.7, 0.2, 0.0, 0.3))
        for scale in (1.0, 1e170, 1e-170):
            a, b = (Mat2(*(scale * e for e in m)) for m in ends)
            for q in ((0.5, 1 / 3, 0.0, 0.0), (-1.0, 0.0, 0.25, 0.3),
                      (9.0, 0.1, 0.0, 0.3), (0.9, 0.2, 0.0, 0.3)):
                p = Mat2(*(scale * e for e in q))
                ep, ea, eb = (Mat2(*map(F, m.entries())) for m in (p, a, b))
                want = to_float(_ref_point_to_set(
                    ep, [], [RankOneSegment(ea, eb, 1)]))
                assert repr(point_segment_dist_sq(p, a, b)) == repr(want)
            e11 = Mat2(scale, 0.0, 0.0, 0.0)
            assert point_segment_dist_sq(e11, a, a) == to_float(
                (Mat2(*map(F, e11.entries())) - ea).frob_sq())
        # on the segment: float arithmetic gave 1.232595164407831e-32
        a, b = (Mat2(*m) for m in ends)
        assert point_segment_dist_sq(Mat2(0.9, 0.2, 0.0, 0.3), a, b) == 0.0

    def test_float_distance_past_the_float_range_is_inf(self):
        big = points_only([Mat2(1e200, 0.0, 0.0, 0.0)])
        zero = points_only([Mat2.zero(FLOAT)])
        assert point_to_set_dist_sq(Mat2.zero(FLOAT), big) == math.inf
        assert directed_dist_sq(zero, big) == math.inf
        assert hausdorff_sq(big, zero) == math.inf

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_float_distance_of_a_non_finite_entry_raises(self, bad):
        good, worse = Mat2(1.0, 0.0, 0.0, 0.0), Mat2(bad, 0.0, 0.0, 0.0)
        seg = RankOneSegment(Mat2.zero(FLOAT), good, 1)
        for call in (lambda: point_segment_dist_sq(worse, good, good),
                     lambda: point_segment_dist_sq(good, worse, good),
                     lambda: point_to_set_dist_sq(worse, points_only([good])),
                     lambda: directed_dist_sq(
                         LaminateSet((), (seg,), 1), points_only([worse]))):
            with pytest.raises(GeometryError, match="not a finite number"):
                call()

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
        got = point_to_set_dist_sq(p, s)
        assert got == _ref_point_to_set(p, pts, segs) and type(got) is F

    @given(st.lists(st.tuples(*[rationals] * 4), max_size=3),
           st.lists(st.tuples(st.tuples(*[rationals] * 4), vectors, vectors),
                    min_size=1, max_size=3),
           st.tuples(*[rationals] * 4),
           st.lists(st.tuples(st.tuples(*[rationals] * 4),
                              st.integers(1, 7)), min_size=1, max_size=4),
           st.tuples(*[rationals] * 4))
    @settings(max_examples=100, deadline=None)
    def test_one_set_answers_many_queries(self, pts, segs, c, free, w):
        # one set, its rows built once, against queries of other
        # denominators and against points whose foot is exactly an end
        pts = [Mat2(*e) for e in pts]
        segs = [RankOneSegment(Mat2(*a), Mat2(*a) + _outer(u, v), 1)
                for a, u, v in segs]
        segs.append(RankOneSegment(Mat2(*c), Mat2(*c), 1))  # zero length
        s = LaminateSet(tuple(pts), tuple(segs), 1)
        queries = [Mat2(*e).scale(F(1, k)) for e, k in free]
        w = Mat2(*w)
        for seg in segs[:-1]:
            # w minus its part along b - a: the foot is at t = 0, t = 1
            n = seg.b - seg.a
            w_perp = w - n.scale(inner(w, n) / n.frob_sq())
            queries += [seg.a + w_perp, seg.b + w_perp]
        for p in queries:
            got = point_to_set_dist_sq(p, s)
            assert got == _ref_point_to_set(p, pts, segs) and type(got) is F

    def test_cached_rows_are_not_part_of_the_value(self):
        def build():
            seg = RankOneSegment(Mat2.diag(0, F(1, 3)), Mat2.diag(2, F(1, 3)),
                                 1)
            return LaminateSet((Mat2.diag(F(5, 2), 5),), (seg,), 1)

        s, t = build(), build()
        assert point_to_set_dist_sq(Mat2.diag(F(1, 7), 1), s) == F(4, 9)
        assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
        assert [f.name for f in fields(s)] == ["points", "segments", "order"]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(s, protocol))
            assert back == t and hash(back) == hash(t)
            assert repr(back) == repr(t)
            assert point_to_set_dist_sq(Mat2.diag(3, 4), back) == \
                point_to_set_dist_sq(Mat2.diag(3, 4), t)

    def test_exact_point_against_float_set_raises(self):
        p = Mat2.diag(1, 1)
        e11 = Mat2(1.0, 0.0, 0.0, 0.0)
        seg = RankOneSegment(Mat2.zero(FLOAT), e11, 1)
        for s in (points_only([e11]), LaminateSet((), (seg,), 1)):
            with pytest.raises(MixedModeError):
                point_to_set_dist_sq(p, s)
            with pytest.raises(MixedModeError):  # and the other way round
                point_to_set_dist_sq(e11, points_only([p]))

    def test_set_mixing_exact_and_float_raises(self):
        # as lamination_step does on the same set
        mixed = [Mat2(1, 0, 0, 0), Mat2(0.5, 0.0, 0.0, 0.0)]
        seg = RankOneSegment(mixed[1], Mat2(1.0, 0.0, 0.0, 0.0), 1)
        sets = (points_only(mixed), LaminateSet(mixed[:1], (seg,), 1))
        for s in sets:
            for p in (Mat2.zero(), Mat2.zero(FLOAT)):
                with pytest.raises(MixedModeError):
                    point_to_set_dist_sq(p, s)
            for run in (lambda: directed_dist_sq(s, s),
                        lambda: hausdorff_sq(s, points_only(mixed[1:])),
                        lambda: lamination_step(s)):
                with pytest.raises(MixedModeError):
                    run()

    @pytest.mark.parametrize("target_segments", [False, True])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_directed_matches_the_mat2_enumeration(self, target_segments,
                                                   data):
        src = data.draw(laminate_sets())
        target = data.draw(laminate_sets(segments=st.just(target_segments)))
        if src.segments and data.draw(st.booleans()):
            # with the ends of a source segment in the target, that
            # segment's sup lies inside it, at a crossing or a sample
            g = src.segments[0]
            target = LaminateSet(target.points + (g.a, g.b), target.segments,
                                 target.order)
        got = directed_dist_sq(src, target)
        assert got == _ref_directed(src, target) and type(got) is F
        back = _ref_directed(target, src)
        assert hausdorff_sq(src, target) == hausdorff_sq(target, src) == \
            max(got, back)

    @given(laminate_sets(st.floats(-1e3, 1e3).map(lambda v: v * 2.0 ** -40)
                         | st.floats(-1e3, 1e3)),
           laminate_sets(st.floats(-1e3, 1e3)))
    @settings(max_examples=100, deadline=None)
    def test_float_distance_is_the_exact_one_rounded_once(self, s1, s2):
        e1, e2 = exact_set(s1), exact_set(s2)
        for got, want in ((directed_dist_sq(s1, s2), directed_dist_sq(e1, e2)),
                          (directed_dist_sq(s2, s1), directed_dist_sq(e2, e1)),
                          (hausdorff_sq(s1, s2), hausdorff_sq(e1, e2))):
            assert repr(got) == repr(to_float(want))

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
        pts = [Mat2.diag(x, y)
               for x, y in [(-3, 1), (1, 3), (3, -1), (-1, -3)]]
        w = separator_check(pts)
        assert all(d != 0 for d in w.pairwise_dets)

    def test_rank_one_pair_fails(self):
        pts = [Mat2.diag(0, 0), Mat2.diag(1, 0), Mat2.diag(2, 3)]
        with pytest.raises(GeometryError, match="separator fails"):
            separator_check(pts)

    def test_float_pair_rank_one_within_tol_fails(self):
        # the difference diag(1, -1e-12) has det -1e-12, within DEFAULT_TOL
        # of its squared norm
        with pytest.raises(GeometryError, match="separator fails"):
            separator_check([Mat2.diag(1.0, 0.0), Mat2.diag(0.0, 1e-12)])

    def test_nonzero_z_rejected(self):
        # z = 1 in the upper-triangular and in the symmetric subspace, and
        # a matrix in neither
        for m in (Mat2(1, 1, 0, 2), Mat2(1, 1, 1, 2), Mat2(1, 0, 1, 2)):
            with pytest.raises(GeometryError, match="not diagonal"):
                separator_check([m, Mat2.diag(2, 1)])
