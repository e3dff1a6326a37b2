"""Staircase, upper-triangular spiral, symmetric spiral, five-point set."""
import math
from fractions import Fraction as F

import pytest

from rohull import constructions
from rohull.constructions import (
    ConstructionError,
    InputError,
    StaircaseConfig,
    SymSpiralConfig,
    TriSpiralConfig,
    five_point_build,
    five_point_gap,
    five_point_gap_sq,
    staircase_iterate,
    staircase_perturbation,
    staircase_points,
    sym_spiral,
    tri_spiral,
)
from rohull.core import Mat2, det
from rohull.hulls import point_to_set_dist_sq
from rohull.t4 import check_t4_witness


class TestStaircase:
    @staticmethod
    def _assert_same(m, f):
        """m equals the Fraction-built f by value, by stored ints and by
        repr."""
        assert m == f
        assert (m._n11, m._n12, m._n21, m._n22, m._d) == \
            (f._n11, f._n12, f._n21, f._n22, f._d)
        assert repr(m) == repr(f)

    def test_points_count_and_membership(self):
        cfg = StaircaseConfig(n_max=30, perturbation_index=10)
        s = staircase_points(cfg)
        # (1,0), the two fixed upper points, and two points per step
        assert len(s.points) == 2 * 30 + 3
        assert Mat2.diag(1, 0) in s.points
        assert Mat2.diag(0, F(3, 2)) in s.points
        assert Mat2.diag(F(-1, 2), F(1, 2)) in s.points
        # the limit of the descent chain is deliberately excluded
        assert Mat2.diag(0, 1) not in s.points

    def test_no_internal_connections(self):
        s = staircase_points(StaircaseConfig(n_max=12, perturbation_index=3))
        pts = s.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert det(pts[i] - pts[j]) != 0

    def test_perturbation_close_to_staircase(self):
        for n in range(65):
            h = F(1, 2 ** (n + 1))
            self._assert_same(staircase_perturbation(n), Mat2.diag(1 - h, h))

    def test_iterate_reaches_limit_point(self):
        cfg = StaircaseConfig(n_max=30, perturbation_index=10)
        chain = staircase_iterate(cfg)
        assert chain[-1] == Mat2.diag(0, 1)
        assert len(chain) == 2 * (10 + 1) + 1

    def test_iterate_steps_share_a_coordinate(self):
        cfg = StaircaseConfig(n_max=30, perturbation_index=6)
        chain = staircase_iterate(cfg)
        for a, b in zip(chain, chain[1:]):
            assert a.a11 == b.a11 or a.a22 == b.a22

    def test_chain_from_p_n_is_a_tail_of_the_chain_from_p_big_n(self):
        # usc-probe reads every n off the one chain from P_N
        for big in range(1, 13):
            full = staircase_iterate(StaircaseConfig(12, big))
            for n in range(1, big + 1):
                assert (staircase_iterate(StaircaseConfig(12, n))
                        == full[2 * (big - n):])

    def test_staircase_points_equal_the_fraction_formulas(self):
        s = staircase_points(StaircaseConfig(n_max=400, perturbation_index=1))
        expected = [Mat2.diag(1, 0)]
        for n in range(401):
            h = F(1, 2 ** (n + 1))
            expected += [Mat2.diag(1 - 3 * h, h), Mat2.diag(1 - 2 * h, 3 * h)]
        assert len(s.points) == len(expected)
        for m, f in zip(s.points, expected):
            self._assert_same(m, f)

    def test_shared_coordinate_fails_the_certificate(self, monkeypatch):
        pair = constructions._staircase_pair

        def repeating(n):
            low, high = pair(n)
            # diag(1 - 3h, h) with the a22 of the pair before it
            return (Mat2.diag(low.a11, F(1, 2 ** n)) if n else low), high
        monkeypatch.setattr(constructions, "_staircase_pair", repeating)
        with pytest.raises(ConstructionError, match="share a coordinate"):
            staircase_points(StaircaseConfig(n_max=3, perturbation_index=1))

    @pytest.mark.parametrize("moved, message", [
        (0, "horizontal step is not rank-one"),
        (1, "vertical step is not rank-one"),
    ])
    def test_chain_checks_compare_the_shared_coordinate(self, monkeypatch,
                                                         moved, message):
        pair = constructions._staircase_pair

        def nudged(n):
            # the low point's a22 or the high point's a11 moved off the chain
            p = list(pair(n))
            p[moved] = p[moved] + Mat2.diag(F(moved, 2 ** 70),
                                            F(1 - moved, 2 ** 70))
            return tuple(p)
        monkeypatch.setattr(constructions, "_staircase_pair", nudged)
        with pytest.raises(ConstructionError, match=message):
            staircase_iterate(StaircaseConfig(n_max=5, perturbation_index=3))

    def test_index_beyond_truncation_rejected(self):
        with pytest.raises(ConstructionError):
            staircase_iterate(StaircaseConfig(n_max=5, perturbation_index=9))


class TestTriSpiral:
    def test_standard_square_lambdas(self):
        cfg = TriSpiralConfig.standard_square()
        assert cfg.lambdas() == (F(1, 2), F(1, 2), F(1, 2), F(1, 2))

    def test_first_cycle_iterates(self):
        cfg = TriSpiralConfig.standard_square()
        xs = tri_spiral(cfg, 4)
        assert (xs[0].a11, xs[0].a22, xs[0].a12) == (-1, -1, 1)
        got = [(p.a11, p.a22, p.a12) for p in xs[1:5]]
        assert got == [(-1, 1, F(1, 2)), (1, 1, F(1, 4)),
                       (1, -1, F(1, 8)), (-1, -1, F(1, 16))]

    def test_rank_one_certificates(self):
        cfg = TriSpiralConfig.standard_square()
        xs = tri_spiral(cfg, 40)
        anchors = cfg.anchors()
        for i, p in enumerate(xs):
            a = anchors[i % 4]
            assert det(p - a) == 0

    def test_z_strictly_decreasing(self):
        xs = tri_spiral(TriSpiralConfig.standard_square(), 24)
        zs = [p.a12 for p in xs]
        assert all(a > b for a, b in zip(zs, zs[1:]))
        assert zs[-1] > 0

    def test_geometric_cycle_ratio(self):
        xs = tri_spiral(TriSpiralConfig.standard_square(), 12)
        # same corner four steps apart shrinks by the product of lambdas
        for i in range(8):
            assert xs[i + 4].a12 == xs[i].a12 * F(1, 16)

    @pytest.mark.parametrize("cfg", [
        TriSpiralConfig.standard_square(),
        TriSpiralConfig(-1.0, 1.0, 1.0, -1.0, 1.0, (2.0,) * 4)])
    def test_iterates_are_upper_triangular(self, cfg):
        assert all(m.a21 == 0 for m in tri_spiral(cfg, 40))

    @pytest.mark.parametrize("s", [1e3, 1e5])
    def test_float_spiral_at_scale(self, s):
        # rank2x2's relative rule: an absolute bound on det(X_i - A_i)
        # refused these iterates for their rounding alone
        cfg = TriSpiralConfig(-s, 1.3 * s, 0.7 * s, -1.1 * s, 0.9 * s,
                              (2.3 * s, 1.7 * s, 2.9 * s, 1.1 * s))
        assert len(tri_spiral(cfg, 200)) == 201

    def test_float_closed_form_check_is_relative(self, monkeypatch):
        # a recursion off by a relative 1e-6 is refused at scale 1e-12 as
        # at scale 1 (the bound was absolute below |x| = 1)
        combine = constructions.combine
        monkeypatch.setattr(constructions, "combine",
                            lambda a, b, t: combine(a, b, t).scale(1 + 1e-6))
        for s in (1.0, 1e-12):
            cfg = TriSpiralConfig(-s, 1.3 * s, 0.7 * s, -1.1 * s, 0.9 * s,
                                  (2.3 * s, 1.7 * s, 2.9 * s, 1.1 * s))
            with pytest.raises(ConstructionError, match="closed form"):
                tri_spiral(cfg, 10)

    def test_non_spiral_config_rejected(self):
        with pytest.raises(ConstructionError):
            TriSpiralConfig(x1=-1, x2=1, y1=1, y2=-1, z0=1,
                            alpha=(0, 0, 0, 0))


class TestSymSpiral:
    def test_small_xi3_runs_and_contracts(self):
        cfg = SymSpiralConfig.standard_square(1e-3)
        res = sym_spiral(cfg, 12)
        assert len(res.cycles) == 12
        assert res.lambda_product == pytest.approx(1 / 16, abs=1e-6)
        assert res.contraction_bound == pytest.approx(17 / 32)
        for cyc in res.cycles:
            assert cyc.ratio < 17 / 32
            assert cyc.branch_error <= 1e-9
            assert all(r <= 1e-10 for r in cyc.det_residual_rel)

    def test_converges_to_base_corner(self):
        cfg = SymSpiralConfig.standard_square(1e-3)
        res = sym_spiral(cfg, 12)
        last = res.iterates[-1]
        gap = (last - Mat2(cfg.x1, 0.0, 0.0, cfg.y2)).frob()
        assert gap <= 1e-9

    def test_iterates_are_symmetric(self):
        res = sym_spiral(SymSpiralConfig.standard_square(1e-3), 12)
        assert all(m.a12 == m.a21 for m in res.iterates)

    def test_large_xi3_aborts_with_named_bound(self):
        with pytest.raises(ConstructionError, match="xi3 too large"):
            sym_spiral(SymSpiralConfig.standard_square(1.5), 12)

    def test_exact_mode_rejected(self):
        with pytest.raises((ConstructionError, TypeError)):
            SymSpiralConfig.standard_square(F(1, 1000))


# a step pushed out of its subspace by 1e-12 passes the float closed-form and
# rank-one checks, so only the subspace check of the returned iterates sees it
SUBSPACE_ESCAPES = {
    "tri-spiral": (Mat2(0.0, 0.0, 1e-12, 0.0), lambda: tri_spiral(
        TriSpiralConfig(-1.0, 1.0, 1.0, -1.0, 1.0, (2.0,) * 4), 8)),
    "sym-spiral": (Mat2(0.0, 1e-12, 0.0, 0.0), lambda: sym_spiral(
        SymSpiralConfig.standard_square(1e-3), 2)),
}


@pytest.mark.parametrize("name", list(SUBSPACE_ESCAPES))
def test_step_out_of_the_subspace_raises(monkeypatch, name):
    skew, run = SUBSPACE_ESCAPES[name]
    combine = constructions.combine
    monkeypatch.setattr(constructions, "combine",
                        lambda a, b, t: combine(a, b, t) + skew)
    with pytest.raises(ConstructionError, match="left the"):
        run()


class TestFivePoint:
    def test_exact_mu_at_half(self):
        cfg = five_point_build(F(1, 2))
        assert cfg.mu == (F(16, 3), F(7, 3), F(41, 6), F(65, 24))

    def test_cascade_closes_at_half(self):
        # the mu cascade is cyclic: at eps = 1/2 the closing identity reads
        # 1 + (65/24) / (5/8) = 16/3
        cfg = five_point_build(F(1, 2))
        assert 1 + cfg.mu[3] / F(5, 8) == cfg.mu[0]
        assert check_t4_witness(cfg.x, cfg.witness()).accepted

    def test_p1_value_at_half(self):
        cfg = five_point_build(F(1, 2))
        assert cfg.p[0] == Mat2(F(-3, 13), 0, F(6, 13), 0)

    def test_first_equation_reproduces_x1(self):
        cfg = five_point_build(F(1, 2))
        w = cfg.witness()
        assert cfg.p[0] + w.c[0].scale(cfg.mu[0]) == cfg.x[0]
        assert cfg.x[0] == Mat2.diag(1, 0)

    def test_c_telescopes_to_zero(self):
        for eps in (F(1, 2), F(1, 4), F(1, 3), F(3, 4)):
            cfg = five_point_build(eps)
            total = Mat2.zero()
            for c in cfg.c:
                total = total + c
            assert total.is_zero()

    def test_x_dets(self):
        cfg = five_point_build(F(1, 3))
        for i, xi in enumerate(cfg.x):
            assert det(xi) == 0
            for xj in cfg.x[i + 1:]:
                assert det(xi - xj) != 0

    def test_gap_frozen_value_at_half(self):
        assert five_point_gap_sq(five_point_build(F(1, 2))) == F(9, 169)
        assert five_point_gap(five_point_build(F(1, 2))) == F(3, 13)

    def test_gap_matches_sampling_oracle(self):
        cfg = five_point_build(F(1, 2))
        p1 = cfg.p[0]
        best = math.inf
        for xi in cfg.x:
            for k in range(2001):
                t = k / 2000
                q = Mat2(*(float(e) * t for e in xi.entries()))
                best = min(best, (Mat2(*(float(e) for e in p1.entries()))
                                  - q).frob())
        assert math.isclose(best, float(five_point_gap(cfg)), abs_tol=1e-6)

    def test_gap_zero_for_members(self):
        cfg = five_point_build(F(1, 2))
        hull = cfg.hull()
        assert point_to_set_dist_sq(Mat2.zero(), hull) == 0
        assert point_to_set_dist_sq(cfg.x[2], hull) == 0

    def test_invalid_epsilon(self):
        with pytest.raises(ConstructionError):
            five_point_build(F(1, 1))
        with pytest.raises(ConstructionError):
            five_point_build(F(0, 1))


# each range check of a construction's parameters, run before anything is
# computed
OUT_OF_RANGE = {
    "staircase-n-max-below-n": lambda: StaircaseConfig(4, 5),
    "staircase-n-zero": lambda: StaircaseConfig(4, 0),
    "tri-spiral-x-order": lambda: TriSpiralConfig(1, -1, 1, -1, 1, (2,) * 4),
    "tri-spiral-y-order": lambda: TriSpiralConfig(-1, 1, -1, 1, 1, (2,) * 4),
    "tri-spiral-z0": lambda: TriSpiralConfig(-1, 1, 1, -1, 0, (2,) * 4),
    "tri-spiral-alpha": lambda: TriSpiralConfig(-1, 1, 1, -1, 1,
                                                (2, 2, 0, 2)),
    "sym-spiral-exact": lambda: SymSpiralConfig.standard_square(F(1, 1000)),
    "sym-spiral-x-order": lambda: SymSpiralConfig(
        1.0, -1.0, 1.0, -1.0, (2.0,) * 4, 1e-3),
    "sym-spiral-alpha": lambda: SymSpiralConfig(
        -1.0, 1.0, 1.0, -1.0, (2.0, -2.0, 2.0, 2.0), 1e-3),
    "sym-spiral-xi3-zero": lambda: SymSpiralConfig.standard_square(0.0),
    "sym-spiral-xi3-too-large": lambda: SymSpiralConfig.standard_square(1.5),
    "five-point-epsilon-one": lambda: five_point_build(F(1)),
    "five-point-epsilon-zero": lambda: five_point_build(F(0)),
    "five-point-epsilon-negative": lambda: five_point_build(F(-1, 2)),
}


def test_input_error_is_a_construction_error():
    assert issubclass(InputError, ConstructionError)


@pytest.mark.parametrize("build", list(OUT_OF_RANGE.values()),
                         ids=list(OUT_OF_RANGE))
def test_range_checks_raise_input_error(build):
    with pytest.raises(InputError):
        build()
