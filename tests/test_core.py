"""Matrix arithmetic, rank predicates, subspace dets, crossing roots."""
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rohull.core import (
    GeometryError,
    Mat2,
    combine,
    crossing_parameter,
    det,
    det_cross,
    inner,
    rank2x2,
    rank_one_connected,
)
from rohull.scalar import (
    EXACT,
    FLOAT,
    MixedModeError,
    common_mode,
    rational_sqrt,
    scalar_sqrt,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64)


def rat_mats():
    return st.builds(Mat2, rationals, rationals, rationals, rationals)


class TestMat2:
    def test_arith(self):
        a = Mat2(1, 2, 3, 4)
        b = Mat2(F(1, 2), 0, 0, F(1, 2))
        assert (a + b).entries() == (F(3, 2), 2, 3, F(9, 2))
        assert (a - a).is_zero()
        assert (-a).entries() == (-1, -2, -3, -4)
        assert a.scale(F(1, 2)).entries() == (F(1, 2), 1, F(3, 2), 2)

    def test_det_frob(self):
        a = Mat2(1, 2, 3, 4)
        assert a.det() == -2
        assert a.frob_sq() == 30
        assert math.isclose(Mat2(3.0, 0.0, 0.0, 4.0).frob(), 5.0)

    def test_int_entries_become_exact(self):
        a = Mat2(1, 0, 0, 1)
        assert isinstance(a.a11, F)

    def test_mixed_mode_rejected(self):
        with pytest.raises(MixedModeError):
            Mat2(1, 0, 0, 0.5)
        with pytest.raises(MixedModeError):
            Mat2(1, 0, 0, 1) + Mat2(0.5, 0.0, 0.0, 0.5)

    def test_constructors(self):
        assert Mat2.diag(2, 3).det() == 6
        assert Mat2.zero().is_zero()
        assert Mat2.from_rows([[1, 2], [3, 4]]) == Mat2(1, 2, 3, 4)
        assert Mat2(1, 2, 3, 4).rows() == ((1, 2), (3, 4))


# --- the integer kernel against plain Fraction arithmetic -----------------

exact_scalars = st.one_of(st.integers(-50, 50), rationals)
floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
entries4 = st.tuples(*[exact_scalars] * 4)
float4 = st.tuples(*[floats] * 4)


def ref_det(e):
    return e[0] * e[3] - e[1] * e[2]


def ref_frob_sq(e):
    return e[0] * e[0] + e[1] * e[1] + e[2] * e[2] + e[3] * e[3]


def ref_inner(e, f):
    return e[0] * f[0] + e[1] * f[1] + e[2] * f[2] + e[3] * f[3]


def ref_det_cross(e, f):
    return e[0] * f[3] + f[0] * e[3] - e[1] * f[2] - f[1] * e[2]


def ref_combine(e, f, t):
    s = 1 - t
    return tuple(s * x + t * y for x, y in zip(e, f))


class _Float(float):
    pass


def test_common_mode_by_class_and_by_value():
    assert common_mode(F(1, 2), 3, F(5)) == EXACT
    assert common_mode(0.5, -2.0) == FLOAT
    # bools and subclasses take the checked path, with the same answers
    assert common_mode(True, F(1)) == EXACT
    assert common_mode(_Float(1.5), 2.0) == FLOAT
    with pytest.raises(MixedModeError):
        common_mode(F(1), 1.0)
    with pytest.raises(MixedModeError):
        common_mode(True, _Float(1.0))
    with pytest.raises(TypeError):
        common_mode(F(1), "1")
    with pytest.raises(KeyError):
        common_mode()


def test_sqrt_of_a_rational_rounds_once():
    # math.sqrt of the Fraction rounds it to a float first and then takes
    # the root, which gives 0.8355818232746196
    x = F(692494024908262464100677495352, 991831877515410672157179759337)
    assert scalar_sqrt(x) == 0.8355818232746197
    assert scalar_sqrt(F(241, 144)) == math.sqrt(241 / 144)
    assert scalar_sqrt(F(9, 4)) == F(3, 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**30), st.integers(1, 10**30),
       st.integers(-600, 600))
def test_sqrt_is_the_isqrt_root_rounded_once(n, d, e):
    """The root of n / d 4^e, past the float range too, is its isqrt
    root at 300 bits past a float's 53, rounded once."""
    x = F(n, d) * F(4) ** e
    assume(rational_sqrt(x) is None)
    b = 353 - (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    want = F(math.isqrt(math.floor(x * F(4) ** b))) / F(2) ** b
    assert scalar_sqrt(x) == float(want)


class TestKernelAgainstFractions:
    @given(entries4, entries4, exact_scalars)
    def test_exact_ops(self, e, f, s):
        a, b = Mat2(*e), Mat2(*f)
        assert a.entries() == tuple(F(x) for x in e)
        assert all(type(x) is F for x in a.entries())
        assert a.rows() == ((e[0], e[1]), (e[2], e[3]))
        assert (a + b).entries() == tuple(x + y for x, y in zip(e, f))
        assert (a - b).entries() == tuple(x - y for x, y in zip(e, f))
        assert (-a).entries() == tuple(-x for x in e)
        assert a.scale(s).entries() == tuple(s * x for x in e)
        assert combine(a, b, s).entries() == ref_combine(e, f, s)
        for got, want in ((a.det(), ref_det(e)),
                          (a.frob_sq(), ref_frob_sq(e)),
                          (inner(a, b), ref_inner(e, f)),
                          (det_cross(a, b), ref_det_cross(e, f))):
            assert type(got) is F and got == want

    @given(entries4, entries4)
    def test_equal_values_equal_however_written(self, e, f):
        a, b = Mat2(*e), Mat2(*f)
        for same in ((a + b) - b, (a - b) + b, -(-a), a.scale(F(3, 7))
                     .scale(F(7, 3)), combine(a, a, F(2, 5))):
            assert same == a
            assert hash(same) == hash(a)
            assert same.entries() == a.entries()

    def test_reducible_inputs(self):
        a = Mat2(F(2, 4), F(6, 4), 0, 2)
        b = Mat2(F(1, 2), F(3, 2), F(0, 5), F(8, 4))
        assert a == b and hash(a) == hash(b)
        half = Mat2(F(1, 4), F(3, 4), 0, 1)
        assert half + half == a and hash(half + half) == hash(a)

    def test_pickle_round_trip(self):
        for m in (Mat2(F(1, 2), 3, F(-5, 6), 0), Mat2(0.5, 1.0, 2.0, 3.0)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(m, protocol))
                assert back == m and back.mode == m.mode

    @given(st.tuples(*[st.integers(-64, 64)] * 4), st.integers(0, 6))
    def test_exact_equals_float_of_same_value(self, nums, k):
        exact = Mat2(*(F(n, 2 ** k) for n in nums))
        approx = Mat2(*(n / 2 ** k for n in nums))
        assert exact == approx and approx == exact
        assert hash(exact) == hash(approx)
        assert exact != approx + Mat2(1.0, 0.0, 0.0, 0.0)

    @given(float4, float4, floats)
    def test_float_mode_matches_float_formulas(self, e, f, s):
        a, b = Mat2(*e), Mat2(*f)
        assert a.mode == "float" and a.entries() == e
        assert a.rows() == ((e[0], e[1]), (e[2], e[3]))
        assert (a + b).entries() == tuple(x + y for x, y in zip(e, f))
        assert (a - b).entries() == tuple(x - y for x, y in zip(e, f))
        assert (-a).entries() == tuple(-x for x in e)
        assert a.scale(s).entries() == tuple(s * x for x in e)
        assert combine(a, b, s).entries() == tuple(
            (1.0 - s) * x + s * y for x, y in zip(e, f))
        assert a.det() == ref_det(e)
        assert a.frob_sq() == ref_frob_sq(e)
        assert inner(a, b) == ref_inner(e, f)
        assert det_cross(a, b) == ref_det_cross(e, f)

    def test_mixed_modes_raise(self):
        q = Mat2(1, F(1, 2), 0, 3)
        x = Mat2(1.0, 0.5, 0.0, 3.0)
        mixed = [lambda: q + x, lambda: x - q, lambda: q.scale(0.5),
                 lambda: x.scale(F(1, 2)), lambda: combine(q, x, F(1, 2)),
                 lambda: combine(q, q, 0.5), lambda: combine(x, x, F(1, 2)),
                 lambda: inner(q, x), lambda: det_cross(x, q),
                 lambda: Mat2(1, 2, 3, 4.0)]
        for op in mixed:
            with pytest.raises(MixedModeError):
                op()


class TestConstructionHook:
    """Every Mat2 construction runs __post_init__ exactly once: the
    benchmark's traced run counts constructions by patching it."""

    @pytest.mark.parametrize("one", [F(1), 1.0])
    def test_each_operation_constructs_once(self, monkeypatch, one):
        a = Mat2(one, 2 * one, 3 * one, 5 * one)
        b = Mat2(one / 4, 0 * one, one, one / 3)
        s = one / 3
        calls = []
        post_init = Mat2.__post_init__

        def counted(m):
            calls.append(m)
            post_init(m)

        monkeypatch.setattr(Mat2, "__post_init__", counted)
        ops = {"sub": lambda: a - b, "add": lambda: a + b, "neg": lambda: -a,
               "scale": lambda: a.scale(s),
               "combine": lambda: combine(a, b, s),
               "init": lambda: Mat2(one, one, one, one)}
        for name, op in ops.items():
            calls.clear()
            m = op()
            assert calls == [m], name


class TestRankPredicates:
    def test_rank2x2(self):
        assert rank2x2(Mat2.zero()) == 0
        assert rank2x2(Mat2(1, 0, 0, 0)) == 1
        assert rank2x2(Mat2(1, 0, 0, 1)) == 2

    def test_rank_one_connected_basic(self):
        a = Mat2.diag(0, 0)
        assert rank_one_connected(a, Mat2.diag(1, 0))
        assert not rank_one_connected(a, Mat2.diag(1, 1))

    def test_identical_matrices_raise(self):
        a = Mat2.diag(1, 2)
        with pytest.raises(GeometryError, match="rank-0"):
            rank_one_connected(a, a)

    def test_float_tolerance_scale_invariant(self):
        # det of the difference is tiny relative to the squared norm
        a = Mat2(1e6, 0.0, 0.0, 1e-8)
        b = Mat2(0.0, 0.0, 0.0, 0.0)
        assert rank_one_connected(a, b, tol=1e-9)

    def test_float_rank_across_the_float_range(self):
        # det and the squared norm of these overflow to inf or underflow
        # to 0; the quotients by the largest entry do neither
        assert rank2x2(Mat2(1e200, 0.0, 0.0, 1e200)) == 2
        assert rank2x2(Mat2(1e-170, 0.0, 0.0, 1e-170)) == 2
        assert rank2x2(Mat2(*[1e200] * 4)) == 1
        assert rank2x2(Mat2(1e-170, 0.0, 0.0, 0.0)) == 1
        assert not Mat2(1e-170, 0.0, 0.0, 0.0).is_zero()
        assert Mat2(0.0, -0.0, 0.0, -0.0).is_zero()
        zero = Mat2.zero(FLOAT)
        assert not rank_one_connected(Mat2(1e200, 0.0, 0.0, 1e200), zero)
        assert rank_one_connected(Mat2(*[1e-170] * 4), zero)

    def test_staircase_neighbors_not_connected(self):
        # neighbors of the diagonal staircase never share a coordinate
        for n in range(21):
            h = F(1, 2 ** (n + 1))
            a = Mat2.diag(1 - 3 * h, h)
            b = Mat2.diag(1 - 2 * h, 3 * h)
            assert not rank_one_connected(a, b)


class TestEmbeddings:
    @given(rationals, rationals, rationals)
    def test_tri_det_is_xy(self, x, y, z):
        assert Mat2(x, z, 0, y).det() == x * y

    @given(rationals, rationals, rationals)
    def test_sym_det_is_xy_minus_z_sq(self, x, y, z):
        assert Mat2(x, z, z, y).det() == x * y - z * z


class TestDetAlgebra:
    @given(rat_mats(), rat_mats())
    def test_det_cross_polarization(self, m, n):
        # det(M+N) = det M + det N + det_cross(M, N)
        assert det(m + n) == det(m) + det(n) + det_cross(m, n)

    @given(rat_mats(), rat_mats(), rationals)
    def test_det_along_segment_is_quadratic(self, a, b, t):
        d = b - a
        val = det(combine(a, b, t))
        expected = det(a) + t * det_cross(a, d) + t * t * det(d)
        assert val == expected

    @given(rat_mats(), rationals, rationals)
    def test_det_scaling_on_rank_one_lines(self, a, s, t):
        # along a rank-one direction the determinant varies linearly
        d = Mat2(1, 2, F(1, 2), 1)  # rank one
        assert det(d) == 0
        lhs = det(a + d.scale(s + t))
        rhs = det(a + d.scale(s)) + t * det_cross(d, a + d.scale(s))
        # difference of the two linear extrapolations vanishes
        assert lhs - rhs == 0


class TestCrossingParameter:
    def test_exact_example(self):
        # segment from diag(2,0) to diag(-1,0) against pivot pair with a
        # sign change: t solves det((1-t)A + tB - C) = 0
        a = Mat2.diag(2, 3)
        b = Mat2.diag(-2, 3)
        c = Mat2.diag(0, 0)
        # det(A - C) = 6, det(B - C) = -6, rank(B - A) = 1
        t = crossing_parameter(a, c, b)
        assert t == F(1, 2)
        assert det(combine(a, b, t) - c) == 0

    def test_exact_root_with_unequal_denominators(self):
        # det(A - C) = 2/3 over denominator 3, det(B - C) = -2/5 over 5
        a = Mat2.diag(F(1, 3), 2)
        b = Mat2.diag(F(-1, 5), 2)
        c = Mat2.zero()
        t = crossing_parameter(a, c, b)
        assert t == F(5, 8)
        assert det(combine(a, b, t) - c) == 0

    def test_requires_sign_change(self):
        a = Mat2.diag(2, 3)
        b = Mat2.diag(4, 3)
        c = Mat2.diag(0, 0)
        with pytest.raises(GeometryError, match="no sign change"):
            crossing_parameter(a, c, b)

    def test_degenerate_pivot_rejected(self):
        a = Mat2.diag(1, 1)
        with pytest.raises(GeometryError, match="degenerate"):
            crossing_parameter(a, a, Mat2.zero())

    def test_pivot_on_segment_start_rejected(self):
        a = Mat2.diag(1, 1)
        with pytest.raises(GeometryError, match="degenerate"):
            crossing_parameter(a, a, Mat2.diag(2, 2))

    @given(rationals, rationals, rationals, rationals)
    def test_exact_root_postcondition(self, ax, ay, bx, cy):
        # build a rank-one segment (shared y) with a genuine sign change
        a = Mat2.diag(ax, ay)
        b = Mat2.diag(bx, ay)
        c = Mat2.diag(F(1, 3) + abs(bx) + abs(ax) + 1, cy)
        da, db = det(a - c), det(b - c)
        if da == 0 or db == 0 or da * db > 0 or a == b:
            return
        t = crossing_parameter(a, c, b)
        assert 0 <= t <= 1
        assert det(combine(a, b, t) - c) == 0
