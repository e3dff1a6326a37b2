"""Plane-pair factorization, polyconvex hulls, Caratheodory splitting."""
import itertools
import random
from fractions import Fraction as F
from math import gcd, inf, lcm, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rohull.core import GeometryError, Mat2, det, rank2x2
from rohull.hulls import l2_hull
from rohull.scalar import FLOAT, MixedModeError
from rohull.pchull import (
    HullDescription,
    OutsideHullError,
    PlaneHull,
    RankOnePlane,
    _on_segment_2d,
    _plane_rows,
    caratheodory_decompose,
    convex_hull_2d,
    pairwise_det_check,
    pc_hull,
    plane_pair,
    polygon_contains,
    to_rows,
)

class TestPlanePair:
    def test_left_right_split(self):
        pp = plane_pair(Mat2(1, 0, 0, 0), Mat2.zero())
        # every matrix whose rows are multiples of (1, 0) is in one plane,
        # every matrix whose columns are multiples of (1, 0)^T in the other
        assert pp.p1.contains(Mat2(2, 0, 5, 0)) or pp.p2.contains(
            Mat2(2, 0, 5, 0))
        assert pp.p1.contains(Mat2(3, 7, 0, 0)) or pp.p2.contains(
            Mat2(3, 7, 0, 0))

    def test_rank_two_difference_rejected(self):
        with pytest.raises(GeometryError, match="not rank-one"):
            plane_pair(Mat2(1, 0, 0, 1), Mat2.zero())

    def test_planes_meet_along_the_difference(self):
        x0 = Mat2(2, 1, 4, 2)  # rank one
        y0 = Mat2.zero()
        pp = plane_pair(x0, y0)
        assert pp.p1.contains(x0) and pp.p1.contains(y0)
        assert pp.p2.contains(x0) and pp.p2.contains(y0)
        d = Mat2.from_rows(pp.intersection_direction)
        assert det(d) == 0 and not d.is_zero()

    def test_within_plane_rank_condition(self):
        pp = plane_pair(Mat2(1, 2, 3, 6), Mat2.zero())
        rng = random.Random(7)
        for _ in range(50):
            s, t = (F(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(2))
            a = Mat2.from_rows(pp.p1.matrix_at((s, t)))
            b = Mat2.from_rows(pp.p1.matrix_at((t, s + 1)))
            if a != b:
                assert rank2x2(a - b) <= 1
            c = Mat2.from_rows(pp.p2.matrix_at((s, t)))
            d2 = Mat2.from_rows(pp.p2.matrix_at((t, s + 1)))
            if c != d2:
                assert rank2x2(c - d2) <= 1

    def test_cross_plane_rank_two(self):
        pp = plane_pair(Mat2(1, 2, 3, 6), Mat2.zero())
        rng = random.Random(11)
        hits = 0
        for _ in range(100):
            coords = [F(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(4)]
            a = pp.p1.matrix_at((coords[0], coords[1]))
            b = pp.p2.matrix_at((coords[2], coords[3]))
            if pp.p1.contains(b) or pp.p2.contains(a):
                continue
            assert rank2x2(Mat2.from_rows(a) - Mat2.from_rows(b)) == 2
            hits += 1
        assert hits > 50

    def test_float_inputs_supported(self):
        x0 = np.array([[1.0, 0.5], [2.0, 1.0]])
        pp = plane_pair(Mat2(*x0.flatten()), Mat2(0.0, 0.0, 0.0, 0.0))
        assert pp.p1.contains(Mat2(*x0.flatten()))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3)])
    def test_float_generators_factor_the_difference(self, shape):
        """A float rank-one difference is accepted; its generators are unit
        vectors, first entry above 1e-12 positive, and their outer product
        is the difference over its Frobenius norm, up to sign."""
        rng = np.random.default_rng(13)
        m, n = shape
        for _ in range(200):
            x0 = rng.normal(size=shape)
            y0 = x0 + np.outer(rng.normal(size=m), rng.normal(size=n))
            pp = plane_pair(tuple(map(tuple, x0.tolist())),
                            tuple(map(tuple, y0.tolist())))
            w, v = pp.p1.generator, pp.p2.generator
            for g in (w, v):
                assert abs(sum(x * x for x in g) - 1) < 1e-12
                assert next(x for x in g if abs(x) > 1e-12) > 0
            d = (x0 - y0) / np.linalg.norm(x0 - y0)
            outer = np.outer(v, w)
            assert np.array_equal(pp.intersection_direction, outer)
            assert min(np.abs(outer - d).max(),
                       np.abs(outer + d).max()) < 1e-12

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3)])
    def test_float_rank_two_difference_rejected(self, shape):
        """A float difference with s1 >= 10 tol max(1, s0) is rank two."""
        rng = np.random.default_rng(17)
        m, n = shape
        tol = 1e-6
        zero = ((0.0,) * n,) * m
        rejected = 0
        for _ in range(200):
            scale = 10 ** rng.uniform(-3, 3)
            d = (np.outer(rng.normal(size=m), rng.normal(size=n)) * scale
                 + rng.normal(size=shape) * tol * max(1.0, scale)
                 * 10 ** rng.uniform(1.5, 3))
            s = np.linalg.svd(d, compute_uv=False)
            if s[1] < 10 * tol * max(1.0, s[0]):
                continue
            with pytest.raises(GeometryError, match="not rank-one"):
                plane_pair(tuple(map(tuple, d.tolist())), zero, tol)
            rejected += 1
        assert rejected >= 100

    def test_float_products_beyond_the_float_range(self):
        zero = ((0.0, 0.0), (0.0, 0.0))
        for d in (((1e200, 1.0), (1.0, 1e200)),
                  ((1e308, -1e308), (-1e308, -1e308))):
            with pytest.raises(GeometryError, match="not rank-one"):
                plane_pair(d, zero)
        pp = plane_pair(((1e200, 2e200), (3e100, 6e100)), zero)
        assert pp.p2.generator == (1.0, pytest.approx(3e-100))

    def test_small_float_rank_two_difference_rejected(self):
        with pytest.raises(GeometryError, match="not rank-one"):
            plane_pair(Mat2(1e-12, 0.0, 0.0, 1e-12), Mat2.zero(FLOAT))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=8, max_size=8),
           st.integers(-20, 0), st.integers(-150, 150))
    def test_float_rank_one_rule_is_rank2x2(self, e, j, k):
        """plane_pair raises on a nonzero 2x2 float difference exactly when
        rank2x2 calls it rank two: u v^T plus a perturbation of size 10^j,
        scaled by 10^k, reaches both sides of the threshold."""
        u1, u2, v1, v2, w11, w12, w21, w22 = e
        eps, s = 10.0 ** j, 10.0 ** k
        d = Mat2((u1 * v1 + w11 * eps) * s, (u1 * v2 + w12 * eps) * s,
                 (u2 * v1 + w21 * eps) * s, (u2 * v2 + w22 * eps) * s)
        if d.is_zero():
            return
        try:
            plane_pair(d, Mat2.zero(FLOAT))
            raised = False
        except GeometryError:
            raised = True
        assert raised == (rank2x2(d) == 2)


class TestConvexHull2D:
    def test_square(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
        hull = convex_hull_2d([(F(x), F(y)) for x, y in pts])
        assert len(hull) == 4
        assert (F(1), F(1)) not in hull

    def test_collinear(self):
        hull = convex_hull_2d([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
        assert len(hull) == 2

    def test_contains(self):
        square = [(F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2))]
        assert polygon_contains(square, (F(1), F(1)))
        assert polygon_contains(square, (F(0), F(1)))  # boundary counts
        assert not polygon_contains(square, (F(3), F(1)))

    @pytest.mark.parametrize("bad", [inf, -inf, nan])
    def test_non_finite_coordinate_raises(self, bad):
        with pytest.raises(GeometryError, match="not a finite number"):
            convex_hull_2d([(0.0, 0.0), (1.0, 0.0), (bad, 1.0)])
        with pytest.raises(GeometryError, match="not a finite number"):
            polygon_contains([(0.0, 0.0), (1.0, 0.0)], (bad, 0.0))


class TestDetCheck:
    def test_passes_on_nonneg(self):
        k = [Mat2.zero(), Mat2(1, 0, 0, 0), Mat2.diag(1, 1)]
        rep = pairwise_det_check(k)
        assert rep.passed

    def test_flags_violation(self):
        rep = pairwise_det_check([Mat2.zero(), Mat2(1, 0, 0, -1)])
        assert not rep.passed
        assert rep.violating_pair == (0, 1)

    def test_float_pair_rank_one_to_rounding(self):
        # exactly rank one in decimal; its float det is -2.2e-16
        k = [Mat2.zero(FLOAT), Mat2(0.1, 0.9, 1.3, 11.7)]
        rep = pairwise_det_check(k)
        assert rep.dets[0][2] < 0
        assert rep.passed and rep.rank_one_pairs == ((0, 1),)
        hull = pc_hull(k)
        assert [ph.indices for ph in hull.planes] == [(0, 1)]

    def test_float_det_sign_below_the_float_range(self):
        # the float det of the difference, -1e-340, underflows to -0.0
        k = [Mat2.zero(FLOAT), Mat2(1e-170, 0.0, 0.0, -1e-170)]
        rep = pairwise_det_check(k)
        assert rep.dets == ((0, 1, -0.0),)
        assert rep.violating_pair == (0, 1)
        with pytest.raises(GeometryError, match="det sign"):
            pc_hull(k)

    def test_non_finite_float_difference_raises(self):
        k = [Mat2(1.5e308, 0.0, 0.0, 1.0), Mat2(-1.5e308, 0.0, 0.0, 0.0)]
        with pytest.raises(GeometryError, match="not a finite number"):
            pairwise_det_check(k)

    def test_plane_of_a_rank_one_pair_at_a_smaller_tol(self):
        # relative det 7.5e-10: rank one at DEFAULT_TOL, where pc_hull
        # decides its pairs, though not at tol = 1e-12
        k = [Mat2.zero(FLOAT), Mat2(1e-4, 1e-4, 1e-4, 1e-4 * (1 + 3e-9))]
        hull = pc_hull(k, tol=1e-12)
        assert [ph.indices for ph in hull.planes] == [(0, 1)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=8, max_size=8),
           st.integers(-150, 150))
    def test_float_pairs_agree_with_l2_hull(self, e, k):
        """For float A and A + u v^T, scaled by 10^k, pc_hull has a plane
        exactly when l2_hull has a segment."""
        a11, a12, a21, a22, u1, u2, v1, v2 = e
        s = 10.0 ** k
        a = Mat2(a11 * s, a12 * s, a21 * s, a22 * s)
        b = Mat2((a11 + u1 * v1) * s, (a12 + u1 * v2) * s,
                 (a21 + u2 * v1) * s, (a22 + u2 * v2) * s)
        try:
            planes = bool(pc_hull([a, b]).planes)
        except GeometryError:
            planes = False
        assert planes == bool(l2_hull([a, b]).segments)


@st.composite
def det_nonneg_sets(draw):
    """Small integer sets with det(p - q) >= 0 pairwise: points of the two
    rank-one planes through one matrix (so member sets nest and two planes
    can share a pair) and a few free points, each kept when it keeps the
    condition."""
    g, h = (draw(st.tuples(st.integers(1, 2), st.integers(-2, 2)))
            for _ in range(2))
    b = draw(st.tuples(*[st.integers(-2, 2)] * 4))
    small = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    # rows c g and d g ("left"), or columns c h and d h ("right")
    cands = [Mat2(b[0] + c * g[0], b[1] + c * g[1],
                  b[2] + d * g[0], b[3] + d * g[1])
             for c, d in draw(st.lists(small, max_size=4))]
    cands += [Mat2(b[0] + c * h[0], b[1] + d * h[0],
                   b[2] + c * h[1], b[3] + d * h[1])
              for c, d in draw(st.lists(small, max_size=4))]
    cands += draw(st.lists(st.builds(Mat2, *[st.integers(-2, 2)] * 4),
                           max_size=4))
    pts = []
    for m in draw(st.permutations(cands)):
        if m not in pts and all(det(m - p) >= 0 for p in pts):
            pts.append(m)
    return pts


class TestPcHull:
    def test_negative_det_rejected(self):
        with pytest.raises(GeometryError, match="det sign"):
            pc_hull([Mat2.zero(), Mat2.diag(1, -1)])

    def test_no_connections_all_singletons(self):
        k = [Mat2.zero(), Mat2.diag(1, 1), Mat2.diag(3, 2)]
        h = pc_hull(k)
        assert h.planes == ()
        assert h.singleton_indices == (0, 1, 2)

    def test_triangle_membership(self):
        k = [Mat2.zero(), Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)]
        h = pc_hull(k)
        assert h.membership(Mat2(F(1, 3), F(1, 3), 0, 0))
        assert h.membership(Mat2(F(1, 2), F(1, 2), 0, 0))
        assert not h.membership(Mat2(F(2, 3), F(2, 3), 0, 0))
        assert not h.membership(Mat2(0, 0, F(1, 3), 0))

    def test_off_plane_by_a_tiny_entry_is_not_a_member(self):
        # the off-plane minor is 10^-400: not zero, though it underflows a
        # float
        k = [Mat2.zero(), Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)]
        h = pc_hull(k)
        assert not h.membership(Mat2(F(1, 3), F(1, 3), F(1, 10**400), 0))
        assert h.membership(Mat2(F(1, 3), F(1, 3), 0, 0))

    @pytest.mark.parametrize("s", [1e-170, 1.5e308])
    def test_float_triangle_at_the_ends_of_the_float_range(self, s):
        # at 1e-170 a float cross product of plane points underflows; at
        # 1.5e308 the length of a generator overflows
        k = [Mat2.zero(FLOAT), Mat2(s, 0.0, 0.0, 0.0), Mat2(0.0, 0.0, s, 0.0)]
        h = pc_hull(k)
        assert [len(ph.vertices) for ph in h.planes] == [3]
        assert h.membership(Mat2(s / 4, 0.0, s / 4, 0.0))
        assert not h.membership(Mat2(s, 0.0, s, 0.0))

    def test_members_are_always_in(self):
        k = [Mat2.zero(), Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0),
             Mat2.diag(5, 5)]
        h = pc_hull(k)
        for m in k:
            assert h.membership(m)


    @given(det_nonneg_sets())
    @settings(max_examples=150, deadline=None)
    def test_planes_are_the_maximal_member_sets(self, pts):
        found = []  # (members, plane) of both planes of each rank-one pair
        for i, j in itertools.combinations(range(len(pts)), 2):
            if pts[i] != pts[j] and det(pts[i] - pts[j]) == 0:
                pair = plane_pair(pts[i], pts[j])
                for plane in (pair.p1, pair.p2):
                    members = tuple(k for k, p in enumerate(pts)
                                    if plane.contains(p))
                    if len(members) >= 2:
                        found.append((members, plane))
        first = {}
        for members, plane in found:
            first.setdefault(members, plane)
        maximal = sorted(m for m in first
                         if not any(set(m) < set(o) for o in first))
        h = pc_hull(pts)
        assert [(ph.indices, ph.plane) for ph in h.planes] == [
            (m, first[m]) for m in maximal]
        covered = {i for m in maximal for i in m}
        assert h.singleton_indices == tuple(
            i for i in range(len(pts)) if i not in covered)

    def test_two_planes_through_one_pair_come_in_member_order(self):
        # both planes through points 0 and 2 hold a third point; the right
        # plane (0, 2, 3) is found after the left one (0, 2, 4)
        k = [Mat2(0, 1, -4, 0), Mat2(0, 0, 0, -2), Mat2(-1, 1, -6, 0),
             Mat2(2, 2, 0, 2), Mat2(0, 1, 0, 0)]
        h = pc_hull(k)
        assert [ph.indices for ph in h.planes] == [(0, 2, 3), (0, 2, 4),
                                                    (1, 4)]
        assert h.planes[0].plane.kind == "right"
        assert h.singleton_indices == ()

    def test_hand_built_plane_hull_is_read_afresh(self):
        k = [Mat2.zero(), Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)]
        ph = pc_hull(k).planes[0]
        shifted = RankOnePlane(((0, 0), (1, 0)), ph.plane.kind,
                               ph.plane.generator)
        for plane, verts in ((shifted, ph.vertices),
                             (ph.plane, ((F(0), F(0)), (F(1, 2), F(1, 2)))),
                             (ph.plane, tuple(tuple(map(float, v))
                                              for v in ph.vertices))):
            hand = HullDescription((), (PlaneHull(plane, (), verts),), ())
            for x, y in ((F(1, 4), F(1, 4)), (F(1, 2), 0), (2, 0), (0, 0)):
                for q in (Mat2.from_rows(plane.matrix_at((x, y))),
                          Mat2(x, y, 1, 0), Mat2(x, y, 0, 0)):
                    assert hand.membership(q) == (
                        plane.contains(q)
                        and polygon_contains(verts, plane.coords(q)))


class TestCaratheodory:
    def test_interior_point_three_weights(self):
        k = [Mat2.zero(), Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)]
        h = pc_hull(k)
        plane = h.planes[0]
        target = Mat2(F(1, 4), F(1, 4), 0, 0)
        res = caratheodory_decompose(
            plane.plane, [k[i] for i in plane.indices], target)
        assert sum(res.weights) == 1
        assert all(w >= 0 for w in res.weights)
        assert res.reconstruct() == target.rows()

    def test_float_plane_raises(self):
        k = [Mat2.zero("float"), Mat2(1.0, 0.0, 0.0, 0.0),
             Mat2(0.0, 1.0, 0.0, 0.0)]
        plane = pc_hull(k).planes[0]
        with pytest.raises(GeometryError, match="needs an exact plane"):
            caratheodory_decompose(plane.plane, k, Mat2(0.25, 0.25, 0.0, 0.0))

    def test_vertex_is_trivial(self):
        k = [Mat2.zero(), Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)]
        h = pc_hull(k)
        plane = h.planes[0]
        res = caratheodory_decompose(
            plane.plane, [k[i] for i in plane.indices], k[1])
        assert sorted(res.weights, reverse=True)[0] == 1

    def test_outside_raises_with_direction(self):
        k = [Mat2.zero(), Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)]
        h = pc_hull(k)
        plane = h.planes[0]
        with pytest.raises(OutsideHullError) as exc:
            caratheodory_decompose(
                plane.plane, [k[i] for i in plane.indices],
                Mat2(F(5), F(5), 0, 0))
        assert exc.value.direction is not None

    def test_two_step_realization_is_rank_one(self):
        k = [Mat2.zero(), Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)]
        h = pc_hull(k)
        plane = h.planes[0]
        target = Mat2(F(1, 3), F(1, 3), 0, 0)
        res = caratheodory_decompose(
            plane.plane, [k[i] for i in plane.indices], target)
        mid = Mat2.from_rows(res.intermediate)
        first = Mat2.from_rows(to_rows(res.points[0]))
        if mid != first:
            # first split stays along a rank-one line inside the plane
            assert det(mid - first) == 0
        # second split reassembles the target from the intermediate point
        total = mid.scale(res.intermediate_weight)
        for p, w in list(zip(res.points, res.weights))[2:]:
            total = total + Mat2.from_rows(to_rows(p)).scale(w)
        assert total == target


# --- RankOnePlane against plain-Fraction and tuple-float formulas ---------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
# plane_pair makes float generators unit vectors; keep |g|^2 clear of
# underflow
small_floats = st.floats(min_value=-9, max_value=9).filter(
    lambda x: x == 0 or abs(x) > 1e-6)
SHAPES = ((2, 2), (3, 2), (2, 3))


def _vectors(plane, rows):
    d = [[x - y for x, y in zip(r, b)] for r, b in zip(rows, plane.basepoint)]
    return d if plane.kind == "left" else [list(c) for c in zip(*d)]


def _ref_contains(plane, rows):
    g = plane.generator
    return all(v[i] * g[j] - v[j] * g[i] == 0
               for v in _vectors(plane, rows)
               for i in range(len(g)) for j in range(i + 1, len(g)))


def _ref_coords(plane, rows):
    g = plane.generator
    gg = sum(x * x for x in g)
    return tuple(sum(a * b for a, b in zip(v, g)) / gg
                 for v in _vectors(plane, rows))


def _ref_matrix_at(plane, coeffs):
    """matrix_at written over the basepoint and generator entries."""
    g = plane.generator
    if plane.kind == "left":
        delta = [[c * gj for gj in g] for c in coeffs]
    else:
        delta = [[c * gi for c in coeffs] for gi in g]
    return tuple(tuple(b + d for b, d in zip(rb, rd))
                 for rb, rd in zip(plane.basepoint, delta))


def _float_contains(plane, rows, tol):
    """The float test written over tuple rows: minors against tol times
    the largest entry of the difference."""
    d = [[x - y for x, y in zip(r, b)] for r, b in zip(rows, plane.basepoint)]
    g = plane.generator
    scale = max([abs(float(e)) for row in d for e in row] + [1.0])
    return all(not (abs(float(v[i] * g[j] - v[j] * g[i])) > float(tol) * scale)
               for v in _vectors(plane, rows)
               for i in range(len(g)) for j in range(i + 1, len(g)))


@st.composite
def planes_and_queries(draw, scalars):
    m, n = draw(st.sampled_from(SHAPES))
    kind = draw(st.sampled_from(["left", "right"]))
    base = tuple(tuple(draw(scalars) for _ in range(n)) for _ in range(m))
    glen = n if kind == "left" else m
    gen = tuple(draw(scalars) for _ in range(glen))
    if all(x == 0 for x in gen):
        gen = (gen[0] + 1,) + gen[1:]
    plane = RankOnePlane(base, kind, gen)
    coeffs = tuple(draw(scalars) for _ in range(n if kind == "right" else m))
    rows = plane.matrix_at(coeffs)
    if draw(st.booleans()):  # push one entry off the plane (or not)
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        bump = draw(scalars)
        rows = tuple(tuple(e + bump if (r, c) == (i, j) else e
                           for c, e in enumerate(row))
                     for r, row in enumerate(rows))
    return plane, rows


class TestRankOnePlaneKernel:
    @given(planes_and_queries(rationals), st.sampled_from([0, 1e-3]))
    @settings(max_examples=150, deadline=None)
    def test_exact_matches_fraction_formulas(self, case, tol):
        plane, rows = case
        queries = [rows]
        if plane.shape() == (2, 2):
            queries.append(Mat2.from_rows(rows))
        for q in queries:
            # tol is for float planes: an exact plane decides exactly
            assert plane.contains(q, tol) == _ref_contains(plane, rows)
            got = plane.coords(q)
            assert got == _ref_coords(plane, rows)
            assert all(type(c) is F for c in got)

    @given(planes_and_queries(small_floats),
           st.sampled_from([0, 1e-12, 1e-3, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_float_gives_the_same_floats(self, case, tol):
        plane, rows = case
        queries = [rows]
        if plane.shape() == (2, 2):
            queries.append(Mat2.from_rows(rows))
        for q in queries:
            assert plane.contains(q, tol) == _float_contains(plane, rows, tol)
            got = plane.coords(q)
            assert list(map(repr, got)) == list(
                map(repr, _ref_coords(plane, rows)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_exact_matrix_at_matches_fraction_formula(self, data):
        plane, _ = data.draw(planes_and_queries(rationals))
        m, n = plane.shape()
        coeffs = tuple(data.draw(rationals | st.integers(-9, 9))
                       for _ in range(m if plane.kind == "left" else n))
        got = plane.matrix_at(coeffs)
        assert got == _ref_matrix_at(plane, coeffs)
        assert all(type(e) is F for row in got for e in row)

    def test_integer_rows_and_non_integer_generator(self):
        plane = RankOnePlane(((0, 1), (2, 3)), "left", (F(2, 3), F(-1, 2)))
        on = plane.matrix_at((F(3), F(-6, 5)))
        assert plane.contains(on)
        assert plane.coords(on) == (F(3), F(-6, 5))
        assert plane.coords(Mat2.from_rows(on)) == (F(3), F(-6, 5))
        assert not plane.contains(((0, 1), (2, F(3) + F(1, 10**30))))

    def test_zero_generator_raises(self):
        # every matrix would pass the minor test, and coordinates would
        # have denominator 0
        for gen in ((0, 0), (0.0, 0.0), (F(0), F(0), F(0))):
            with pytest.raises(GeometryError, match="nonzero generator"):
                RankOnePlane(((1, 2), (3, 4)) if len(gen) == 2 else
                             ((1, 2, 3), (4, 5, 6)), "left", gen)

    def test_modes_do_not_mix(self):
        plane = plane_pair(Mat2(1, 0, 0, 0), Mat2.zero()).p1
        with pytest.raises(MixedModeError):
            plane.contains(Mat2(1.0, 0.0, 0.0, 0.0))


# --- Mat2 queries against the m x n loop on tuple rows --------------------


def _m_by_n(plane):
    """The same plane with its 2x2 path off: every query takes the m x n
    loop over tuple rows."""
    twin = RankOnePlane(plane.basepoint, plane.kind, plane.generator)
    object.__setattr__(twin, "_flat", None)
    return twin


@st.composite
def mat2_planes_and_queries(draw):
    """A plane of plane_pair through two 2x2 Mat2s, exact or float, and a
    Mat2 query of the same mode on or off it."""
    entries = st.lists(rationals, min_size=4, max_size=4)
    y0 = Mat2(*draw(entries))
    u1, u2, v1, v2 = draw(entries.filter(
        lambda e: any(e[:2]) and any(e[2:])))
    x0 = y0 + Mat2(u1 * v1, u1 * v2, u2 * v1, u2 * v2)
    side = draw(st.sampled_from(["p1", "p2"]))
    plane = getattr(plane_pair(x0, y0), side)
    q = Mat2.from_rows(plane.matrix_at(tuple(draw(rationals)
                                             for _ in range(2))))
    q = q + Mat2(*draw(entries)).scale(draw(st.sampled_from([0, 1])))
    if draw(st.booleans()):
        x0, y0, q = (Mat2(*map(float, m.entries())) for m in (x0, y0, q))
        plane = getattr(plane_pair(x0, y0), side)
    return plane, q


class TestMat2Queries:
    @given(mat2_planes_and_queries(), st.sampled_from([0, 1e-9, 1e-3]))
    @settings(max_examples=200, deadline=None)
    def test_mat2_query_matches_the_tuple_loop(self, case, tol):
        plane, m = case
        twin, rows = _m_by_n(plane), to_rows(m)
        assert plane.contains(m, tol) == twin.contains(rows, tol)
        assert plane.coords(m) == twin.coords(rows)
        if plane._den is not None:
            assert plane._coord_row(*plane._difference(m)) == \
                twin._coord_row(*twin._difference(rows))

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4).map(
               lambda e: Mat2(*e)), min_size=1, max_size=5),
           st.lists(st.sampled_from(["exact", "float"]), min_size=5,
                    max_size=5),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_membership_finds_a_point_by_value(self, pts, modes, data):
        # a float point, or a float query, meets the others at its value
        def in_mode(m, mode):
            return m if mode == "exact" else Mat2(*map(float, m.entries()))
        pts = [in_mode(m, mode) for m, mode in zip(pts, modes)]
        hull = HullDescription(tuple(pts), (), tuple(range(len(pts))))
        other = Mat2(*(data.draw(rationals) for _ in range(4)))
        for m in (*pts, other):
            for mode in ("exact", "float"):
                q = in_mode(Mat2(*map(F, m.entries())), mode)
                assert hull.membership(q) == any(q == p for p in pts)


# --- exact plane_pair against a plain-Fraction normal form ----------------


def _ref_normal_form(vec):
    """The primitive-integer multiple of a nonzero rational vector whose
    first nonzero entry is positive, as Fractions."""
    ints = [x * lcm(*(y.denominator for y in vec)) for x in vec]
    g = gcd(*(int(x) for x in ints))
    lead = next(x for x in ints if x != 0)
    return tuple(x / g if lead > 0 else -x / g for x in ints)


def _minors_vanish(d):
    return all(d[i][k] * d[j][l] == d[i][l] * d[j][k]
               for i in range(len(d)) for j in range(i + 1, len(d))
               for k in range(len(d[0])) for l in range(k + 1, len(d[0])))


@st.composite
def rank_one_pairs(draw):
    m, n = draw(st.sampled_from(SHAPES))
    u = draw(st.lists(rationals, min_size=m, max_size=m).filter(any))
    v = draw(st.lists(rationals, min_size=n, max_size=n).filter(any))
    y0 = tuple(tuple(draw(rationals) for _ in range(n)) for _ in range(m))
    x0 = tuple(tuple(y + ui * vj for y, vj in zip(row, v))
               for row, ui in zip(y0, u))
    return x0, y0, u, v


class TestPlanePairExact:
    @given(rank_one_pairs(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_generators_are_the_normal_form(self, case, as_mat2):
        x0, y0, u, v = case
        pp = plane_pair(x0, y0)
        if as_mat2 and len(x0) == len(x0[0]) == 2:
            # read from the Mat2s' stored ints, the same planes
            mp = plane_pair(Mat2.from_rows(x0), Mat2.from_rows(y0))
            assert mp == pp
            pp = mp
        # "left": the shared row direction v; "right": the column one u
        assert pp.p1.kind == "left" and pp.p2.kind == "right"
        assert pp.p1.generator == _ref_normal_form(v)
        assert pp.p2.generator == _ref_normal_form(u)
        for plane in (pp.p1, pp.p2):
            assert all(type(g) is F for g in plane.generator)
            assert plane.basepoint == y0
            assert plane.contains(x0) and plane.contains(y0)
        want = tuple(tuple(a * b for b in pp.p1.generator)
                     for a in pp.p2.generator)
        assert pp.intersection_direction == want
        assert all(type(e) is F for row in want for e in row)

    @given(rank_one_pairs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_perturbed_difference(self, case, data):
        x0, y0, _, _ = case
        m, n = len(x0), len(x0[0])
        i = data.draw(st.integers(0, m - 1))
        j = data.draw(st.integers(0, n - 1))
        bump = data.draw(rationals.filter(bool))
        x1 = tuple(tuple(e + bump if (r, c) == (i, j) else e
                         for c, e in enumerate(row))
                   for r, row in enumerate(x0))
        d = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(x1, y0)]
        if any(e != 0 for row in d for e in row) and _minors_vanish(d):
            plane_pair(x1, y0)  # still rank one
        else:
            with pytest.raises(GeometryError, match="not rank-one"):
                plane_pair(x1, y0)

    def test_int_rows_give_the_fraction_rows_generators(self):
        # a plain-int pivot division must not turn into a float one
        x0, y0 = ((3, 6), (1, 2)), ((0, 0), (0, 0))
        pp = plane_pair(x0, y0)
        assert pp.p1.generator == (1, 2) and pp.p2.generator == (3, 1)
        assert all(type(g) is F
                   for g in pp.p1.generator + pp.p2.generator)

    def test_zero_difference_raises(self):
        with pytest.raises(GeometryError, match="not rank-one"):
            plane_pair(((F(1), F(2), F(3)), (F(4), F(5), F(6))),
                       ((F(1), F(2), F(3)), (F(4), F(5), F(6))))


# --- 2D predicates against a plain-Fraction cross formula ---------------

# ints and Fractions with unequal denominators, on a coarse grid so that
# collinear and repeated points are common
exact_coords = st.one_of(st.integers(-3, 3),
                         st.fractions(-3, 3, max_denominator=6))
float_coords = st.one_of(st.integers(-3, 3).map(float),
                         st.floats(-3, 3, allow_subnormal=False))


def _ref_cross(o, a, b):
    # the parent formula; on exact points, over Fractions
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _as_fractions(p):
    return tuple(c if isinstance(c, float) else F(c) for c in p)


def _ref_on_segment(a, b, q):
    a, b, q = map(_as_fractions, (a, b, q))
    return (_ref_cross(a, b, q) == 0
            and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= q[1] <= max(a[1], b[1]))


def _ref_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    chains = []
    for order in (pts, pts[::-1]):
        out = []
        for p in order:
            while len(out) > 1 and _ref_cross(
                    *map(_as_fractions, (out[-2], out[-1], p))) <= 0:
                out.pop()
            out.append(p)
        chains += out[:-1]
    return chains


def _ref_polygon_contains(vertices, q):
    if not vertices:
        return False
    if len(vertices) == 1:
        return tuple(q) == tuple(vertices[0])
    if len(vertices) == 2:
        return _ref_on_segment(vertices[0], vertices[1], q)
    n = len(vertices)
    return all(_ref_cross(*map(_as_fractions, (vertices[i],
                                               vertices[(i + 1) % n], q)))
               >= 0 for i in range(n))


@st.composite
def polygons_and_queries(draw, coords):
    pts = draw(st.lists(st.tuples(coords, coords), max_size=7))
    verts = _ref_hull(pts)
    kind = draw(st.sampled_from(["free", "vertex", "edge"]))
    if kind == "free" or not verts:
        return pts, verts, draw(st.tuples(coords, coords))
    a = draw(st.sampled_from(verts))
    if kind == "vertex":
        return pts, verts, a
    b = verts[(verts.index(a) + 1) % len(verts)]
    # a point of the line through an edge: on it for t in [0, 1]
    t = draw(st.sampled_from([0, F(1, 3), F(1, 2), 1, F(4, 3), -1]))
    if isinstance(a[0], float) or isinstance(b[0], float):
        t = float(t)
    return pts, verts, tuple(x + t * (y - x) for x, y in zip(a, b))


class TestPlanePredicates:
    @given(polygons_and_queries(exact_coords))
    @settings(max_examples=300, deadline=None)
    def test_exact_matches_fraction_cross(self, case):
        pts, verts, q = case
        assert convex_hull_2d(pts) == verts
        assert polygon_contains(verts, q) == _ref_polygon_contains(verts, q)
        for a, b in zip(verts, verts[1:] + verts[:1]):
            rows = _plane_rows([a, b, q])
            assert _on_segment_2d(*rows) == _ref_on_segment(a, b, q)

    @given(polygons_and_queries(float_coords),
           st.sampled_from([1.0, 1e170, 1e-170]))
    @settings(max_examples=300, deadline=None)
    def test_float_matches_the_fraction_cross(self, case, scale):
        # on the exact value of each float; at 1e-170 a float cross
        # product underflows
        pts, _, q = case
        pts = [tuple(c * scale for c in p) for p in pts]
        q = tuple(c * scale for c in q)

        def exact(p):
            return tuple(map(F, p))
        verts = convex_hull_2d(pts)
        assert list(map(exact, verts)) == _ref_hull(list(map(exact, pts)))
        assert polygon_contains(verts, q) == _ref_polygon_contains(
            list(map(exact, verts)), exact(q))
        for a, b in zip(verts, verts[1:] + verts[:1]):
            rows = _plane_rows([a, b, q])
            assert _on_segment_2d(*rows) == _ref_on_segment(
                exact(a), exact(b), exact(q))

    def test_small_polygons(self):
        a, b = (F(1, 3), F(1, 2)), (F(5, 3), F(3, 2))
        assert not polygon_contains([], a)
        assert polygon_contains([a], (F(2, 6), F(3, 6)))
        assert not polygon_contains([a], (F(1, 3), F(1, 2) + F(1, 10**30)))
        mid = (F(1), F(1))
        assert polygon_contains([a, b], mid)
        assert polygon_contains([a, b], b)
        assert not polygon_contains([a, b], (F(7, 3), F(2)))  # beyond b
        assert not polygon_contains([a, b], (F(1), F(1) + F(1, 10**30)))
        assert convex_hull_2d([a, b, mid, (1, 1)]) == [a, b]


# --- Caratheodory against a plain-Fraction search ------------------------


def _ref_barycentric(a, b, c, q):
    d = _ref_cross(c, a, b)
    if d == 0:
        return None
    u, v = _ref_cross(c, q, b) / d, _ref_cross(c, a, q) / d
    return u, v, 1 - u - v


def _ref_split(coords, q):
    """Indices and weights of the first vertex, edge or triangle holding q,
    or "out" and the separating direction."""
    n = len(coords)
    for i in range(n):
        if coords[i] == q:
            return [i], [F(1)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = coords[i], coords[j]
            if _ref_on_segment(a, b, q):
                dx, dy = b[0] - a[0], b[1] - a[1]
                t = (q[0] - a[0]) / dx if dx else (q[1] - a[1]) / dy
                return [i, j], [1 - t, t]
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                bar = _ref_barycentric(coords[i], coords[j], coords[l], q)
                if bar is not None and min(bar) >= 0:
                    return [i, j, l], list(bar)
    hull = _ref_hull(coords)
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        if len(hull) >= 3 and _ref_cross(a, b, q) < 0:
            return "out", (a[1] - b[1], b[0] - a[0])
    if len(hull) == 2:
        a, b = hull
        s = 1 if _ref_cross(a, b, q) < 0 else -1
        if _ref_cross(a, b, q):
            return "out", (s * (a[1] - b[1]), s * (b[0] - a[0]))
    return "out", (q[0] - hull[0][0], q[1] - hull[0][1])


class TestCaratheodoryAgainstFractions:
    @given(st.lists(st.tuples(exact_coords, exact_coords), min_size=1,
                    max_size=6, unique_by=lambda p: (F(p[0]), F(p[1]))),
           st.tuples(exact_coords, exact_coords), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_first_hit_and_direction(self, coords, q, inside):
        coords = [tuple(map(F, c)) for c in coords]
        q = tuple(map(F, q))
        if inside and len(coords) >= 3:  # an inner point of a triangle
            q = tuple(sum(c[k] for c in coords[:3]) / 3 for k in range(2))
        plane = RankOnePlane(((F(1, 2), 0), (0, F(-1, 3))), "left",
                             (F(2, 3), F(1, 5)))
        points = [Mat2.from_rows(plane.matrix_at(c)) for c in coords]
        target = Mat2.from_rows(plane.matrix_at(q))
        idx, weights = _ref_split(coords, q)
        if idx == "out":
            with pytest.raises(OutsideHullError) as exc:
                caratheodory_decompose(plane, points, target)
            assert exc.value.direction == weights
            return
        order = sorted(range(len(idx)), key=lambda i: weights[i] == 0)
        res = caratheodory_decompose(plane, points, target)
        assert res.points == tuple(points[idx[i]] for i in order)
        assert res.weights == tuple(weights[i] for i in order)
        assert all(type(w) is F for w in res.weights)
