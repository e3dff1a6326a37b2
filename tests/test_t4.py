"""T4 witness checks, scaffold solve, exact class decisions, laminate
unrolling."""
import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rohull import constructions, t4
from rohull.core import GeometryError, Mat2, rank2x2
from rohull.scalar import (FLOAT, MixedModeError, MixedRadicandError, Surd,
                           quadratic_roots, sign)
from rohull.t4 import (
    T4Witness,
    _class_solutions,
    _equations,
    _read_pairs,
    _scaffold,
    check_t4_witness,
    cyclic_class,
    detect_t4,
    laminate_unroll,
    solve_t4_ordering,
)

# the standard diagonal four-point configuration with mu = (2,2,2,2)
CLASSIC = [Mat2.diag(F(-1), F(3)), Mat2.diag(F(3), F(1)),
           Mat2.diag(F(1), F(-3)), Mat2.diag(F(-3), F(-1))]


def classic_witness():
    mu = (F(2), F(2), F(2), F(2))
    p = Mat2.diag(F(-1), F(-1))
    c = (Mat2.diag(F(0), F(2)), Mat2.diag(F(2), F(0)),
         Mat2.diag(F(0), F(-2)), Mat2.diag(F(-2), F(0)))
    return T4Witness(ordering=(0, 1, 2, 3), p=p, c=c, mu=mu)


class TestWitnessCheck:
    def test_classic_accepted(self):
        rep = check_t4_witness(CLASSIC, classic_witness())
        assert rep.accepted
        assert rep.eq_residual_sq == (0, 0, 0, 0)
        assert rep.c_dets == (0, 0, 0, 0)
        assert rep.c_sum_norm_sq == 0
        assert rep.mu_margin == 1

    def test_bad_mu_rejected(self):
        w = classic_witness()
        bad = T4Witness(w.ordering, w.p, w.c, (F(1), F(2), F(2), F(2)))
        assert not check_t4_witness(CLASSIC, bad).accepted

    def test_tiny_exact_residuals_rejected(self):
        # each residual is 10^-400, which a float rounds to 0
        w = classic_witness()
        tiny = Mat2(F(1, 10 ** 200), F(0), F(0), F(0))
        moved = T4Witness(w.ordering, w.p + tiny, w.c, w.mu)
        rep = check_t4_witness(CLASSIC, moved, 0)
        assert all(r != 0 for r in rep.eq_residual_sq)
        assert not rep.accepted
        assert not t4.witness_certified(CLASSIC, moved)

    def test_huge_exact_witness_accepted(self):
        # |X_k|^2 is about 10^401, beyond the float range
        x = [m.scale(10 ** 200) for m in CLASSIC]
        w = classic_witness()
        big = T4Witness(w.ordering, w.p.scale(10 ** 200),
                        tuple(c.scale(10 ** 200) for c in w.c), w.mu)
        assert check_t4_witness(x, big, 0).accepted
        det_res = detect_t4(x)
        assert [v.mu for v in det_res.witnesses] == [w.mu] * 4
        assert all(t4.witness_certified(x, v) for v in det_res.witnesses)

    @pytest.mark.parametrize("where", ["x", "p", "c", "mu"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_float_raises(self, where, bad):
        w = classic_witness()
        x = [Mat2(*map(float, m.entries())) for m in CLASSIC]
        p, *c = (Mat2(*map(float, m.entries())) for m in (w.p, *w.c))
        mu = [2.0] * 4
        worse = Mat2(bad, 0.0, 0.0, 0.0)
        if where == "x":
            x[1] = worse
        elif where == "p":
            p = worse
        elif where == "c":
            c[2] = worse
        else:
            mu[1] = bad
        with pytest.raises(GeometryError, match="not a finite number"):
            check_t4_witness(
                x, T4Witness(w.ordering, p, tuple(c), tuple(mu)), 1e-6)

    def test_float_witness_with_a_rank_two_c_rejected(self):
        # the golden T4 times 1e-3, with d added to C_0 and taken from C_1:
        # the residuals stay within tol^2 and sum C is unchanged, and the
        # dets of C_0 and C_1 are far below tol, but both are rank two by
        # rank2x2 at tol (relative det about 1e-4 against 3.2e-5)
        data = Path(__file__).parent / "data" / "golden_t4.json"
        x = [Mat2.from_rows([[F(e) for e in r] for r in m])
             for m in json.loads(data.read_text())]
        w = detect_t4(x).witnesses[0]

        def small(m):
            return Mat2(*(float(e) * 1e-3 for e in m.entries()))
        ordered, p, c = ([small(x[i]) for i in w.ordering], small(w.p),
                         [small(m) for m in w.c])
        mu, tol = tuple(map(float, w.mu)), max(math.sqrt(1e-9), 1e-6)
        assert check_t4_witness(ordered, T4Witness(w.ordering, p, tuple(c),
                                                   mu), tol).accepted
        d = Mat2(1e-7, -2e-7, 3e-7, 1e-7)
        c[0], c[1] = c[0] + d, c[1] - d
        assert [rank2x2(m, tol) for m in c] == [2, 2, 1, 1]
        rep = check_t4_witness(ordered, T4Witness(w.ordering, p, tuple(c),
                                                  mu), tol)
        assert max(map(abs, rep.c_dets)) < tol ** 2
        assert not rep.accepted

    @pytest.mark.parametrize("s", [1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12])
    def test_float_witness_bound_is_relative(self, s):
        # the golden T4 times s, as floats: detect_t4 finds and certifies
        # all 24 witnesses at any scale, and moving P by a tenth of the
        # scale is refused at any scale (the bound was absolute below 1)
        data = Path(__file__).parent / "data" / "golden_t4.json"
        x = [Mat2(*(float(F(e)) * s for row in m for e in row))
             for m in json.loads(data.read_text())]
        found = detect_t4(x).witnesses
        assert len(found) == 24
        assert all(t4.witness_certified(x, w) for w in found)
        w, tol = found[0], max(math.sqrt(1e-9), 1e-6)
        ordered = [x[i] for i in w.ordering]
        assert check_t4_witness(ordered, w, tol).accepted
        moved = T4Witness(w.ordering, w.p + Mat2(s / 10, 0.0, 0.0, 0.0),
                          w.c, w.mu)
        assert not check_t4_witness(ordered, moved, tol).accepted

    def test_float_witness_is_the_exact_scaffold_rounded(self):
        # the five-point T4 at epsilon 1/3 over its common denominator: int
        # entries, so float and exact detection decide the same mu, and a
        # class representative's P and C_k are the exact ones rounded once
        cfg = constructions.five_point_build(F(1, 3))
        x = [m.scale(math.lcm(*(xk._d for xk in cfg.x))) for m in cfg.x]
        floats = [Mat2(*map(float, m.entries())) for m in x]
        exact, got = detect_t4(x).witnesses, detect_t4(floats).witnesses
        assert [w.ordering for w in exact] == [w.ordering for w in got]
        reps = [(we, wf) for we, wf in zip(exact, got) if wf.ordering[0] == 0]
        assert len(reps) == 6
        for we, wf in reps:
            assert wf.mu == tuple(map(float, we.mu))
            assert [m.entries() for m in (wf.p, *wf.c)] == [
                tuple(map(float, m.entries())) for m in (we.p, *we.c)]
        # non-dyadic float entries and mu, read at their exact values
        thirds = [m.scale(1 / 3) for m in floats]
        mu = tuple(float(m) for m in cfg.mu)
        q, c = _scaffold(thirds, mu)
        eq, ec = _scaffold([Mat2(*map(F, m.entries())) for m in thirds],
                           tuple(map(F, mu)))
        assert [m.entries() for m in (*q, *c)] == [
            tuple(map(float, m.entries())) for m in (*eq, *ec)]

    def test_rotated_float_witness_is_the_exact_one_rounded(self):
        # as above, for all 24 witnesses: a rotation's P is the exact corner
        # Q_r rounded once, not a float sum of P and the C_k
        cfg = constructions.five_point_build(F(1, 3))
        x = [m.scale(math.lcm(*(xk._d for xk in cfg.x))) for m in cfg.x]
        assert all(e.denominator == 1 for m in x for e in m.entries())
        floats = [Mat2(*map(float, m.entries())) for m in x]
        exact, got = detect_t4(x).witnesses, detect_t4(floats).witnesses
        assert [w.ordering for w in exact] == [w.ordering for w in got]
        assert len(got) == 24
        for we, wf in zip(exact, got):
            assert wf.p.mode == FLOAT and wf.mu == tuple(map(float, we.mu))
            assert [m.entries() for m in (wf.p, *wf.c)] == [
                tuple(map(float, m.entries())) for m in (we.p, *we.c)]

    def test_corners_close_cycle(self):
        w = classic_witness()
        corners = w.corners()
        assert corners[0] == w.p
        assert corners[-1] == w.p

    def test_reconstructed_matches_input(self):
        w = classic_witness()
        assert list(w.reconstructed()) == CLASSIC


def _reference_system(mu):
    """The 5x5 system in the unknowns (P, C_1, .., C_4): row k reads
    X_k = P + C_1 + .. + C_{k-1} + mu_k C_k, and the last row sum C = 0."""
    a = np.zeros((5, 5))
    for k in range(4):
        a[k, 0] = 1.0
        a[k, 1:k + 1] = 1.0
        a[k, k + 1] = mu[k]
    a[4, 1:] = 1.0
    return a


PAIRS = list(itertools.combinations(range(4), 2))


def _dets(x):
    """(A01, A02, A03, A12, A13, A23), each det(X_j - X_k) as a Fraction."""
    return tuple(F((x[j] - x[k]).det()) for j, k in PAIRS)


def _pairs(mu):
    """mu as the (numerator, denominator) pairs that _equations takes."""
    return [(F(m).numerator, F(m).denominator) for m in mu]


def _solve_exact(m, b):
    """y with m y = b, m a list of rows, by Gauss-Jordan on Fractions."""
    rows = [[F(v) for v in row] + [F(bi)] for row, bi in zip(m, b)]
    for i in range(len(rows)):
        pivot = next(r for r in range(i, len(rows)) if rows[r][i])
        rows[i], rows[pivot] = rows[pivot], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(len(rows)):
            if r != i and rows[r][i]:
                rows[r] = [v - rows[r][i] * w
                           for v, w in zip(rows[r], rows[i])]
    return [row[-1] for row in rows]


class TestClosedFormSolve:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.mu = 1 + 4 * rng.random((64, 4))
        self.x = rng.normal(size=(4, 4))

    def test_residual_is_the_solved_dets(self):
        # at fixed mu the class equations are one linear map of the dets of
        # the scaffold's C_k, whatever P: the map read off four inputs gives
        # the equations of every other input
        rng = random.Random(4)
        for _ in range(5):
            mu = [1 + F(rng.randint(1, 40), rng.randint(1, 9))
                  for _ in range(4)]
            dets, eqs = [], []
            for _ in range(8):
                x = [Mat2(*(F(rng.randint(-9, 9), rng.randint(1, 5))
                            for _ in range(4))) for _ in range(4)]
                _, c = _scaffold(x, mu)
                dets.append([ck.det() for ck in c])
                eqs.append(_equations(_dets(x), _pairs(mu)))
            basis = [list(col) for col in zip(*dets[:4])]
            for d, e in zip(dets[4:], eqs[4:]):
                lam = _solve_exact(basis, d)
                assert e == tuple(sum(l * ek[i] for l, ek in zip(lam, eqs))
                                  for i in range(4))
        # a T4's mu zeroes the dets and the equations both
        assert _equations(_dets(CLASSIC), _pairs((F(2),) * 4)) == (0, 0, 0, 0)
        assert _equations(_dets(FIVE_POINT.x), _pairs(FIVE_POINT.mu)) == \
            (0, 0, 0, 0)

    def test_residual_from_the_mat2_pairwise_dets(self):
        # _read_pairs scales every det(X_j - X_k) to an int by one positive
        # factor, for float and exact Mat2 alike (a float input at its
        # exact value, so its dets are those of its Fraction copy), and the
        # class equations keep zeros and signs
        floats = [Mat2(*map(float, row)) for row in self.x]
        exact = [Mat2(*map(F, row)) for row in self.x]
        assert _read_pairs(floats) == _read_pairs(exact)
        for x in (floats, exact, CLASSIC):
            raw = _dets([Mat2(*map(F, m.entries())) for m in x])
            faults, a = _read_pairs(x)
            assert faults == {}
            assert all(a[j, k] == a[k, j] and type(a[j, k]) is int
                       for j, k in PAIRS)
            scaled = tuple(a[pair] for pair in PAIRS)
            scale = scaled[0] / raw[0]
            assert scale > 0
            assert scaled == tuple(scale * v for v in raw)
            for mu in self.mu[:8]:
                mu = _pairs(map(F, mu))
                assert _equations(scaled, mu) == tuple(
                    scale * e for e in _equations(raw, mu))

    def test_float_matches_reference_solve(self):
        x = [Mat2(*map(float, row)) for row in self.x]
        rhs = np.vstack([self.x, np.zeros((1, 4))])
        for mu in self.mu:
            (p, *_), c = _scaffold(x, tuple(float(m) for m in mu))
            ref = np.linalg.solve(_reference_system(mu), rhs)
            np.testing.assert_allclose(p.entries(), ref[0], rtol=1e-12,
                                       atol=1e-12)
            np.testing.assert_allclose([ci.entries() for ci in c], ref[1:],
                                       rtol=1e-12, atol=1e-12)

    def test_exact_solution_satisfies_the_equations(self):
        rng = random.Random(3)
        for _ in range(50):
            mu = [1 + F(rng.randint(1, 40), rng.randint(1, 9))
                  for _ in range(4)]
            x = [Mat2(*(F(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(4))) for _ in range(4)]
            q, c = _scaffold(x, mu)
            assert all(isinstance(e, F)
                       for m in (*q, *c) for e in m.entries())
            for k in range(4):
                assert q[k] + c[k].scale(mu[k]) == x[k]
                assert q[k] + c[k] == q[(k + 1) % 4]
            assert (c[0] + c[1] + c[2] + c[3]).is_zero()

    def test_singular_mu(self):
        # prod mu = prod (mu - 1) = -8/7: the system has no unique solution
        mu = (F(2), F(2), F(2), F(-1, 7))
        assert _scaffold(CLASSIC, mu) is None
        # a float mu is read at its exact value: float(-1/7) is not singular,
        # while prod mu = prod (mu - 1) = 4 here
        floats = [Mat2(*map(float, xi.entries())) for xi in CLASSIC]
        assert _scaffold(floats, (-1.0, 2.0, 2.0, -1.0)) is None


class TestSolveOrdering:
    def test_classic_identity_ordering(self):
        w, reason = solve_t4_ordering(CLASSIC)
        assert reason == "ok"
        assert w.mu == (F(2), F(2), F(2), F(2))
        rep = check_t4_witness(CLASSIC, w)
        assert rep.accepted

    def test_duplicate_points_rejected(self):
        w, reason = solve_t4_ordering([CLASSIC[0]] * 4)
        assert w is None
        assert reason == "points not pairwise distinct"

    def test_rank_one_pair_rejected(self):
        pts = [Mat2.diag(F(0), F(0)), Mat2.diag(F(1), F(0)),
               Mat2.diag(F(1), F(-3)), Mat2.diag(F(-3), F(-1))]
        w, reason = solve_t4_ordering(pts)
        assert w is None
        assert reason == "rank-one connection present"

    def test_no_t4_for_coplanar_points(self):
        # four points on a line of slope -1 in the diagonal plane have no
        # T4 scaffold; the solver must come back empty with a reason
        pts = [Mat2.diag(F(k), F(5 - k)) for k in (1, 2, 3, 4)]
        # pairwise det is -(k-j)^2 != 0, so the gate passes and the solver
        # itself comes up empty
        w, reason = solve_t4_ordering(pts)
        assert w is None
        assert reason == "no T4 in this class"


class TestCyclicClass:
    def test_rotations_share_class(self):
        assert cyclic_class((1, 2, 3, 0)) == cyclic_class((0, 1, 2, 3))
        assert cyclic_class((2, 3, 0, 1)) == (0, 1, 2, 3)

    def test_reversal_is_distinct(self):
        assert cyclic_class((0, 3, 2, 1)) != cyclic_class((0, 1, 2, 3))


class TestLaminateUnroll:
    def test_barycenter_and_mass(self):
        w = classic_witness()
        lam = laminate_unroll(CLASSIC, w, target_corner=1, rounds=10)
        assert lam.barycenter == w.corners()[1]
        assert lam.off_support_mass == F(1, 2) ** 40
        total = sum(weight for _, weight in lam.atoms)
        assert total == 1

    def test_atoms_supported_on_input(self):
        w = classic_witness()
        lam = laminate_unroll(CLASSIC, w, target_corner=1, rounds=3)
        support = {m for m, _ in lam.atoms}
        leftovers = support - set(CLASSIC)
        # everything except the final off-support remainder sits on the input
        assert len(leftovers) == 1

    def test_mass_decreases_with_rounds(self):
        w = classic_witness()
        m3 = laminate_unroll(CLASSIC, w, 1, 3).off_support_mass
        m6 = laminate_unroll(CLASSIC, w, 1, 6).off_support_mass
        assert m6 < m3


def _split_by_split(mu, target_corner, rounds):
    """The weights on X_0..X_3 and the mass left at the corner, one split
    at a time: the mass at the corner moves 1/mu_k of itself onto X_k,
    for k = c-1, c-2, ... (mod 4)."""
    weights, mass, k = [F(0)] * 4, F(1), target_corner
    for _ in range(4 * rounds):
        k = (k - 1) % 4
        weights[k] += mass / F(mu[k])
        mass *= 1 - 1 / F(mu[k])
    return weights, mass


def _five_point_case():
    cfg = constructions.five_point_build(F(1, 3))
    return list(cfg.x), cfg.witness()


def _float_case():
    def flt(m):
        return Mat2(*(float(e) for e in m.entries()))
    x, w = _five_point_case()
    return [flt(m) for m in x], T4Witness(
        w.ordering, flt(w.p), tuple(flt(c) for c in w.c),
        tuple(float(m) for m in w.mu))


@pytest.mark.parametrize("case", [lambda: (CLASSIC, classic_witness()),
                                  _five_point_case, _float_case],
                         ids=["classic", "five-point", "five-point-float"])
def test_unroll_matches_split_by_split(case):
    x, w = case()
    exact = w.p.mode != FLOAT
    for corner in range(4):
        target = w.corners()[corner]
        for rounds in range(10):
            lam = laminate_unroll(x, w, corner, rounds)
            weights, mass = _split_by_split(w.mu, corner, rounds)
            want = [(x[i], weights[i]) for i in range(4) if rounds]
            want.append((target, mass))
            assert [m for m, _ in lam.atoms] == [m for m, _ in want]
            for (_, got), (_, ref) in zip(lam.atoms, want):
                if exact:
                    assert got == ref
                else:
                    assert math.isclose(got, ref, rel_tol=1e-12)
            assert lam.off_support_mass == lam.atoms[-1][1]
            if exact:
                assert lam.barycenter == target


class TestDetect:
    def test_classic_all_cyclic_rotations(self):
        det_res = detect_t4(CLASSIC)
        assert len(det_res.witnesses) == 4
        classes = {cyclic_class(w.ordering) for w in det_res.witnesses}
        assert classes == {(0, 1, 2, 3)}
        for w in det_res.witnesses:
            assert all(abs(float(m) - 2.0) <= 1e-6 for m in w.mu)

    def test_gated_quadruple_empty_with_reason(self):
        pts = [Mat2.diag(F(0), F(0)), Mat2.diag(F(1), F(0)),
               Mat2.diag(F(1), F(-3)), Mat2.diag(F(-3), F(-1))]
        det_res = detect_t4(pts)
        assert not det_res.found()
        assert all("rank-one" in r for r in det_res.failures.values())

    def test_failures_carry_reasons(self):
        pts = [Mat2.diag(F(k), F(5 - k)) for k in (1, 2, 3, 4)]
        det_res = detect_t4(pts)
        assert det_res.witnesses == ()
        assert len(det_res.failures) == 24
        assert all(det_res.failures.values())

    def test_coplanar_quadruple_is_absent(self):
        # every det(X_j - X_k) = -(k - j)^2 < 0: the sign test rules out
        # every class, though the elimination itself degenerates (K = L = 0)
        pts = [Mat2.diag(F(k), F(5 - k)) for k in (1, 2, 3, 4)]
        assert detect_t4(pts).status == dict.fromkeys(REPRESENTATIVES,
                                                      "absent")

    def test_generic_quadruple_is_absent_without_a_scaffold(self,
                                                            monkeypatch):
        # pairwise det(X_j - X_k) > 0: no T4 in any class
        x = [Mat2(*map(F, e)) for e in ((-8, -7, -7, 2), (-8, 9, -8, -1),
                                        (9, -2, -6, 7), (-9, -7, -6, -7))]
        assert all((x[j] - x[k]).det() > 0
                   for j, k in itertools.combinations(range(4), 2))

        def no_scaffold(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(t4, "_scaffold", no_scaffold)
        det_res = detect_t4(x)
        assert not det_res.found()
        assert det_res.status == dict.fromkeys(REPRESENTATIVES, "absent")


    def test_overflowing_float_dets_are_decided_exactly(self):
        # det(X_0 - X_1) is 2e400, beyond the float range, on a rank-two
        # pair; the dets are read at the floats' exact values, and every
        # class is decided as on the Fraction copies
        x = [Mat2(1e200, -1e200, 1e200, 1e200), Mat2.zero(FLOAT),
             Mat2(1.0, 2.0, 3.0, 5.0), Mat2(-2.0, 1.0, 4.0, 1.0)]
        det_res = detect_t4(x)
        assert det_res.witnesses == ()
        assert set(det_res.failures.values()) == {"no T4 in this class"}
        assert det_res.status == dict.fromkeys(REPRESENTATIVES, "absent")
        copy = detect_t4([Mat2(*map(F, m.entries())) for m in x])
        assert (copy.failures, copy.status) == \
            (det_res.failures, det_res.status)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=16, max_size=16),
           st.sampled_from([1, 3]))
    def test_float_detection_is_that_of_the_exact_values(self, e, q):
        # float ints and float thirds: past the preconditions, whose float
        # rule is their own, float detection is detection of the Fraction
        # copies, and each float witness is the copy's rounded entrywise
        floats = [Mat2(*(v / q for v in e[i:i + 4])) for i in range(0, 16, 4)]
        got = detect_t4(floats)
        assume(not set(got.failures.values()) & set(t4._FAULTS))
        want = detect_t4([Mat2(*map(F, m.entries())) for m in floats])
        assert (got.failures, got.status) == (want.failures, want.status)
        assert [w.ordering for w in got.witnesses] == \
            [w.ordering for w in want.witnesses]
        for wf, we in zip(got.witnesses, want.witnesses):
            assert wf.mu == tuple(map(float, we.mu))
            assert [m.entries() for m in (wf.p, *wf.c)] == [
                tuple(map(float, m.entries())) for m in (we.p, *we.c)]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_float_input_raises(self, bad):
        # a float is read at its exact value, which a non-finite one lacks
        x = [Mat2(*map(float, m.entries())) for m in CLASSIC]
        x[1] = Mat2(bad, 0.0, 0.0, 0.0)
        with pytest.raises(GeometryError, match="not a finite number"):
            detect_t4(x)

    def test_rank_one_pair_beyond_the_float_range_fails_preconditions(self):
        # X_0 - X_1 has four equal entries: rank one, though its float
        # det and squared norm overflow
        x = [Mat2(*[1e200] * 4), Mat2.zero(FLOAT),
             Mat2(1.0, 2.0, 3.0, 5.0), Mat2(-2.0, 1.0, 4.0, 1.0)]
        det_res = detect_t4(x)
        assert det_res.witnesses == ()
        assert len(det_res.failures) == 24
        assert set(det_res.failures.values()) == \
            {"rank-one connection present"}


def _counting_search(monkeypatch):
    """Record every ordering detect_t4 decides as a class."""
    calls = []
    decide = t4._decide_class

    def counted(x, a, perm, *args, **kwargs):
        calls.append(tuple(perm))
        return decide(x, a, perm, *args, **kwargs)

    monkeypatch.setattr(t4, "_decide_class", counted)
    return calls


def _rotate(seq, r):
    return tuple(seq[r:]) + tuple(seq[:r])


REPRESENTATIVES = [(0,) + p for p in itertools.permutations(range(1, 4))]
FIVE_POINT = constructions.five_point_build(F(1, 2))


class TestCyclicSearch:
    def test_one_search_per_cyclic_class(self, monkeypatch):
        calls = _counting_search(monkeypatch)
        det_res = detect_t4(CLASSIC)
        assert len(calls) == 6
        assert set(calls) == {(0,) + p
                              for p in itertools.permutations(range(1, 4))}
        assert [w.ordering for w in det_res.witnesses] == [
            (0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
        assert set(det_res.failures) == \
            set(itertools.permutations(range(4))) - \
            {w.ordering for w in det_res.witnesses}

    @pytest.mark.parametrize("x", [CLASSIC, list(FIVE_POINT.x)],
                             ids=["classic", "five-point"])
    def test_rotations_start_at_the_corners(self, x):
        witnesses = {w.ordering: w for w in detect_t4(x).witnesses}
        assert witnesses
        for w in witnesses.values():
            corners = w.corners()
            for r in range(1, 4):
                rotated = witnesses[_rotate(w.ordering, r)]
                assert rotated.p == corners[r]
                assert rotated.c == _rotate(w.c, r)
                assert rotated.mu == _rotate(w.mu, r)
            ordered = [x[i] for i in w.ordering]
            assert check_t4_witness(ordered, w, 0).accepted

    def test_failed_rotation_gets_its_own_search(self, monkeypatch):
        expected = detect_t4(CLASSIC)
        check = t4.check_t4_witness
        rejected = []

        def reject_one_rotation(x, w, tol=0):
            if w.ordering == (1, 2, 3, 0) and not rejected:
                rejected.append(w)
                return check(x, T4Witness(w.ordering, w.p, w.c,
                                          (F(1),) + w.mu[1:]), tol)
            return check(x, w, tol)

        monkeypatch.setattr(t4, "check_t4_witness", reject_one_rotation)
        calls = _counting_search(monkeypatch)
        det_res = detect_t4(CLASSIC)
        assert len(rejected) == 1
        assert len(calls) == 7
        assert calls[6] == (1, 2, 3, 0)
        redone = next(w for w in det_res.witnesses
                      if w.ordering == (1, 2, 3, 0))
        ordered = [CLASSIC[i] for i in redone.ordering]
        assert check(ordered, redone, 0).accepted
        assert det_res == expected
        assert det_res.status[1, 2, 3, 0] == "found"


class TestClassDecision:
    @pytest.mark.parametrize("x", [
        CLASSIC, list(FIVE_POINT.x),
        [Mat2.diag(F(k), F(5 - k)) for k in (1, 2, 3, 4)]],
        ids=["classic", "five-point", "coplanar"])
    def test_classes_equal_one_ordering_solves(self, x):
        det_res = detect_t4(x)
        witnesses = {w.ordering: w for w in det_res.witnesses}
        for perm in REPRESENTATIVES:
            w, reason = solve_t4_ordering([x[i] for i in perm])
            if w is None:
                assert det_res.failures[perm] == reason
            else:
                assert witnesses[perm] == T4Witness(perm, w.p, w.c, w.mu)

    def test_gated_quadruple_decides_no_class(self):
        pts = [Mat2.diag(F(0), F(0)), Mat2.diag(F(1), F(0)),
               Mat2.diag(F(1), F(-3)), Mat2.diag(F(-3), F(-1))]
        assert detect_t4(pts).status == {}

    def test_every_searched_class_has_a_status(self):
        det_res = detect_t4(CLASSIC)
        assert det_res.status == {
            rep: "found" if rep == (0, 1, 2, 3) else "absent"
            for rep in REPRESENTATIVES}
        # the statuses are data about the run, not part of the result
        assert det_res == t4.Detection(det_res.witnesses, det_res.failures)

    def test_five_point_mu_is_exact(self):
        w = next(w for w in detect_t4(list(FIVE_POINT.x)).witnesses
                 if w.ordering == (0, 1, 2, 3))
        assert w.mu == tuple(FIVE_POINT.mu)
        assert all(isinstance(m, F) for m in w.mu)

    def test_irrational_mu_gives_a_float_witness(self):
        x = [Mat2(*map(F, e)) for e in ((3, 9, -9, -7), (-7, -7, -6, -1),
                                        (4, 1, 3, 9), (5, 5, 5, 8))]
        det_res = detect_t4(x)
        assert det_res.status[0, 3, 2, 1] == "found"
        w = next(w for w in det_res.witnesses if w.ordering == (0, 3, 2, 1))
        assert all(isinstance(m, float) for m in w.mu)
        assert t4.witness_certified(x, w)

    def test_irrational_mu_beyond_the_float_range(self):
        # mu_0 = 1.618e154 (the golden ratio times 10^154): its surd
        # overflows a float while the smallest mu is picked
        x = [Mat2(*map(F, e)) for e in ((0, 0, 0, 0), (0, -1, -4, 0),
                                        (5, 0, 0, 1), (1, 0, 0, 10 ** 154))]
        w = next(w for w in detect_t4(x).witnesses
                 if w.ordering == (3, 2, 1, 0))
        assert w.mu[0] == pytest.approx(1.6180339887498948e154)
        # float copies of entries near 10^400 overflow: the class is left
        # undecided, with its reason
        x = [Mat2(*map(F, e)).scale(10 ** 400)
             for e in ((3, 9, -9, -7), (-7, -7, -6, -1), (4, 1, 3, 9),
                       (5, 5, 5, 8))]
        det_res = detect_t4(x)
        assert det_res.status[0, 3, 2, 1] == "undecided"
        assert det_res.failures[0, 3, 2, 1] == \
            "witness beyond the float range"


# --- the class equations, on A_jk built from a scaffold -------------------

positive = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)


def _parametrized(mu, s, u):
    """(A01, A02, A03, A12, A13, A23) of a T4 with this mu, where s and u
    are the polarized dets of (C_0, C_1) and (C_1, C_2), as ints."""
    n = [m - 1 for m in mu]
    a = (-n[0] * mu[1] * s, n[0] * n[2] * s + mu[0] * mu[2] * u,
         -n[3] * mu[0] * u, -n[1] * mu[2] * u,
         n[1] * n[3] * u + mu[1] * mu[3] * s, -n[2] * mu[3] * s)
    scale = math.lcm(*(v.denominator for v in a))
    return tuple(int(v * scale) for v in a)


class TestClassEquations:
    @given(st.tuples(*[positive] * 4), positive, positive,
           st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    @settings(max_examples=200, deadline=None)
    def test_parametrized_class_recovers_mu(self, n, s, u, signs):
        mu = tuple(1 + v for v in n)
        a = _parametrized(mu, signs[0] * s, signs[1] * u)
        assume(all(a))
        solutions, _ = _class_solutions(a)
        assert mu in solutions

    @given(st.tuples(*[positive] * 4), positive, positive,
           st.sampled_from([1, -1]), st.sampled_from([0, 3, 1]))
    @settings(max_examples=200, deadline=None)
    def test_flipped_sign_is_absent(self, n, s, u, sgn, flip):
        # s and u of one sign make A01, A12 of one sign and A02 the other;
        # flipping A01, A12 or A02 leaves no mu > 1
        a = list(_parametrized(tuple(1 + v for v in n), sgn * s, sgn * u))
        assume(all(a))
        a[flip] = -a[flip]
        assert _class_solutions(tuple(a)) == ([], True)

    def test_vanishing_q1_is_undecided(self):
        # x = A01 A23 = 36, y = A02 A13 = 9, z = A03 A12 = 9 give K = 0,
        # L = 0 too, and the signs pass the test
        a = (-6, -3, 3, 3, -3, -6)
        assert t4._b_quadratics(*a)[1] == (0, 0, 0)
        assert _class_solutions(a) == ([], False)


def _sign_by_isqrt(r, t, d):
    """The sign of r + t sqrt(d) from isqrt brackets of growing precision."""
    bits = 64
    while True:
        lo = F(math.isqrt(d << 2 * bits), 1 << bits)
        hi = lo + F(1, 1 << bits)
        ends = sorted((r + t * lo, r + t * hi))
        if ends[0] > 0:
            return 1
        if ends[1] < 0:
            return -1
        bits *= 2


class TestSurd:
    def test_sign_matches_isqrt(self):
        rng = random.Random(5)
        for _ in range(2000):
            d = rng.randint(2, 10 ** 6)
            if math.isqrt(d) ** 2 == d:
                continue
            t = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
            # r close to -t sqrt(d) makes the comparison tight
            r = -t * F(math.isqrt(d * 10 ** 8), 10 ** 4) + \
                F(rng.randint(-3, 3), rng.randint(1, 10 ** 4))
            expected = _sign_by_isqrt(r, t, d) if t else (r > 0) - (r < 0)
            assert Surd(r, t, d).sign() == expected
            assert float(Surd(r, t, d)) == pytest.approx(
                float(r) + float(t) * math.sqrt(d), rel=1e-6, abs=1e-3)

    def test_field_operations(self):
        a, b = Surd(F(1, 2), F(3), 7), Surd(F(-2), F(1, 3), 7)
        assert a * b == Surd(F(-1) + 7, F(1, 6) - 6, 7)
        assert (a / b) * b == a
        assert a - a == 0
        assert a + 1 == Surd(F(3, 2), F(3), 7)


    def test_one_value_over_two_radicands(self):
        # sqrt(112) = 4 sqrt(7)
        a, b = Surd(F(1, 2), F(3), 7), Surd(F(1, 2), F(3, 4), 112)
        assert a == b and b == a and a - b == 0 and b - a == 0
        assert a * b == a * a and b * a == b * b
        assert a != Surd(F(1, 2), F(3, 4), 7)

    def test_mixed_radicands_raise(self):
        root2, root3 = Surd(0, 1, 2), Surd(0, 1, 3)
        for op in (lambda: root2 + root3, lambda: root2 * root3,
                   lambda: root3 - root2, lambda: root2 / root3):
            with pytest.raises(MixedRadicandError):
                op()
        assert issubclass(MixedRadicandError, MixedModeError)
        assert root2 != root3 and Surd(1, 0, 2) == Surd(1, 0, 3) == 1

    def test_rational_surd_takes_the_other_radicand(self):
        # 1 over sqrt 2 is rational, so 1 + sqrt 3 lies in one field
        one, root3 = Surd(1, 0, 2), Surd(0, 1, 3)
        for a, b in ((one, root3), (root3, one)):
            total, product = a + b, a * b
            assert (total.r, total.t, total.d) == (1, 1, 3)
            assert (product.r, product.t, product.d) == (0, 1, 3)
            assert total == Surd(1, 1, 3) and product == root3
            assert a != b and not a == b
        assert Surd(F(1, 2), 0, 2) * Surd(2, 4, 3) == Surd(1, 2, 3)
        assert one - root3 == Surd(1, -1, 3) and one / root3 == Surd(
            0, F(1, 3), 3)


# --- images of known T4s -----------------------------------------------------


def _mul(a, b):
    return Mat2(a.a11 * b.a11 + a.a12 * b.a21, a.a11 * b.a12 + a.a12 * b.a22,
                a.a21 * b.a11 + a.a22 * b.a21, a.a21 * b.a12 + a.a22 * b.a22)


entry = st.integers(-3, 3).map(F)
invertible = st.tuples(*[entry] * 4).map(lambda e: Mat2(*e)).filter(
    lambda m: m.det() != 0)


class TestImages:
    @given(st.sampled_from(["classic", "five-point"]), invertible, invertible,
           st.tuples(*[st.integers(-5, 5).map(lambda v: F(v, 2))] * 4),
           st.permutations(range(4)))
    @settings(max_examples=40, deadline=None)
    def test_image_rotates_the_source_mu(self, name, a, b, m, sigma):
        # det(A (X - Y) B) = det A det B det(X - Y): the T4 and its mu carry
        # over to the image, with the points shuffled by sigma
        src, mu = ((CLASSIC, (F(2),) * 4) if name == "classic"
                   else (FIVE_POINT.x, FIVE_POINT.mu))
        x = [_mul(_mul(a, src[s]), b) + Mat2(*m) for s in sigma]
        witnesses = detect_t4(x).witnesses
        for w in witnesses:
            assert check_t4_witness([x[i] for i in w.ordering], w, 0).accepted
        assert any(
            src_order == tuple((src_order[0] + k) % 4 for k in range(4))
            and w.mu == tuple(mu[(src_order[0] + k) % 4] for k in range(4))
            for w in witnesses
            for src_order in [tuple(sigma[i] for i in w.ordering)])


# --- the Fraction formulas of the class decision, the scaffold and the ----
# --- exact witness check, kept as the oracle of their integer forms; -------
# --- _b_quadratics was on ints already and is shared -----------------------


def _oracle_roots(p2, p1, p0):
    """The real roots of p2 z^2 + p1 z + p0, rational coefficients, p2 != 0:
    Fractions, or Surds when the discriminant is not a rational square."""
    disc = F(p1 * p1 - 4 * p2 * p0)
    if disc < 0:
        return []
    mid, half = -F(p1) / (2 * p2), 1 / F(2 * p2)
    num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if num * num == disc.numerator and den * den == disc.denominator:
        return [mid + half * F(num, den), mid - half * F(num, den)]
    # sqrt(n / m) = sqrt(n m) / m
    n, half = disc.numerator * disc.denominator, half / disc.denominator
    return [Surd(mid, half, n), Surd(mid, -half, n)]


def _oracle_equations(a, mu):
    a01, a02, a03, a12, a13, a23 = a
    m0, m1, m2, m3 = mu
    return (a23 * (m0 - 1) * m1 - a01 * (m2 - 1) * m3,
            a03 * (m1 - 1) * m2 - a12 * (m3 - 1) * m0,
            a02 * m1 * (m1 - 1) + a01 * (m2 - 1) * (m1 - 1) + a12 * m0 * m1,
            a13 * m2 * (m0 - 1) + a12 * (m3 - 1) * (m0 - 1) + a01 * m2 * m3)


def _oracle_c_quadratics(a01, a02, a03, a12, a13, a23, b):
    m0, k0 = a02 * b - a01, a23 * b - a01
    return ((a01 * (a01 * (a23 * (b - 1) + a12) - a03 * a12 * b),
             a01 * (2 * a23 * (b - 1) * m0 + a12 * (m0 + k0) + a03 * a12 * b),
             m0 * (a23 * (b - 1) * m0 + a12 * k0)),
            (-a01 * a13, a01 * (a12 + a13 - a23),
             a02 * a23 * b * b - a23 * (a01 + a02 - a12) * b
             - a01 * (a12 - a23)))


def _oracle_class_solutions(a):
    a01, a02, a03, a12, a13, a23 = a
    s01, s12 = sign(a01), sign(a12)
    if s01 != sign(a23) or s12 != sign(a03) or (
            s01 == s12 and not sign(a02) == sign(a13) == -s01):
        return [], True
    q2, q1 = t4._b_quadratics(*a)
    complete, solutions = any(q1), []
    for b in _oracle_roots(*q2) + (_oracle_roots(*q1) if q1[0] else []):
        if not b > 1:
            continue
        f, g = _oracle_c_quadratics(*a, b)
        lin1, lin0 = g[0] * f[1] - f[0] * g[1], g[0] * f[2] - f[0] * g[2]
        if lin1 == 0 and isinstance(b, Surd):
            complete = complete and lin0 != 0
            continue
        for c in ([-lin0 / lin1] if lin1 != 0 else
                  [] if lin0 != 0 else _oracle_roots(*g)):
            if not c > 1:
                continue
            mu0 = -(b - 1) * (a02 * b + a01 * (c - 1)) / (a12 * b)
            mu = (mu0, b, c, a23 * (mu0 - 1) * b / (a01 * (c - 1)))
            if all(m > 1 for m in mu) and \
                    all(e == 0 for e in _oracle_equations(a, mu)):
                solutions.append(mu)
    return solutions, complete


def _oracle_scaffold(x, mu):
    n = [m - 1 for m in mu]
    d = mu[0] * mu[1] * mu[2] * mu[3] - n[0] * n[1] * n[2] * n[3]
    if d == 0:
        return None
    w = (n[1] * n[2] * n[3], mu[0] * n[2] * n[3], mu[0] * mu[1] * n[3],
         mu[0] * mu[1] * mu[2])
    q = sum((xk.scale(wk / d) for xk, wk in zip(x[1:], w[1:])),
            x[0].scale(w[0] / d))
    corners, c = [], []
    for xk, mk in zip(x, mu):
        corners.append(q)
        c.append((xk - q).scale(1 / mk))
        q = q + c[-1]
    return tuple(corners), tuple(c)


def _oracle_report(x, w):
    """check_t4_witness of an exact witness, on Mat2 arithmetic."""
    recon = w.reconstructed()
    res_sq = tuple((x[i] - recon[i]).frob_sq() for i in range(4))
    dets = tuple(ci.det() for ci in w.c)
    csum = w.c[0] + w.c[1] + w.c[2] + w.c[3]
    margin = min(w.mu) - 1
    ok = not any(res_sq) and not any(dets) and csum.is_zero()
    ok = ok and margin > 0 and all(not ci.is_zero() for ci in w.c)
    return t4.T4Report(res_sq, dets, csum.frob_sq(), margin, ok)


def _value(z):
    """z as a key that equal values share: a Surd r + t sqrt(d) by r, t^2 d
    and the sign of t, whatever square factor its d carries."""
    if isinstance(z, Surd):
        return "surd", z.r, z.t * z.t * z.d, (z.t > 0) - (z.t < 0)
    return type(z), z


def _values(result):
    """The solutions as keys, each once, in first-occurrence order."""
    solutions, complete = result
    keys = [tuple(map(_value, mu)) for mu in solutions]
    return [k for i, k in enumerate(keys) if k not in keys[:i]], complete


nonzero = st.integers(1, 12) | st.integers(-12, -1)

# each reaches one branch of the class decision
CONSTANT_Q1 = (-9, 4, 1, 9, 9, -1)
RATIONAL_B_COMMON_C = (12, 5, -11, -2, -6, 4)  # c rational
RATIONAL_B_COMMON_SURD_C = (10, 4, -3, -6, -7, 7)  # c = 10/7 + sqrt(526)/14
SURD_B_COMMON_C = (-1, -12, 9, 6, -9, -3)


class TestIntegerForms:
    @given(st.tuples(*[nonzero] * 6))
    @example(CONSTANT_Q1)
    @example(RATIONAL_B_COMMON_C)
    @example(RATIONAL_B_COMMON_SURD_C)
    @example(SURD_B_COMMON_C)
    @example((-6, -3, 3, 3, -3, -6))
    @settings(max_examples=400, deadline=None)
    def test_class_solutions_equal_the_fraction_oracle(self, a):
        assert _values(_class_solutions(a)) == \
            _values(_oracle_class_solutions(a))

    @given(st.tuples(*[nonzero] * 6))
    @example(RATIONAL_B_COMMON_C)
    @example(RATIONAL_B_COMMON_SURD_C)
    @example(SURD_B_COMMON_C)
    @settings(max_examples=100, deadline=None)
    def test_class_solutions_equal_the_oracle_by_value(self, a):
        """The same mu as the Fraction oracle, compared by ==: the two
        write an irrational root over radicands a square apart."""
        want = []
        for mu in _oracle_class_solutions(a)[0]:
            if mu not in want:
                want.append(mu)
        assert _class_solutions(a)[0] == want

    def test_the_examples_reach_their_branches(self):
        def common(a):
            """lin1 and lin0 at each root b > 1, as (b is a Surd, lin1,
            lin0)."""
            q2, q1 = t4._b_quadratics(*a)
            out = []
            for b in _oracle_roots(*q2) + (_oracle_roots(*q1) if q1[0]
                                           else []):
                if b > 1:
                    f, g = _oracle_c_quadratics(*a, b)
                    out.append((isinstance(b, Surd),
                                g[0] * f[1] - f[0] * g[1],
                                g[0] * f[2] - f[0] * g[2]))
            return out

        q1 = t4._b_quadratics(*CONSTANT_Q1)[1]
        assert q1[:2] == (0, 0) and q1[2] != 0
        assert _class_solutions(CONSTANT_Q1)[1]
        assert (False, 0, 0) in common(RATIONAL_B_COMMON_C)
        mu = _class_solutions(RATIONAL_B_COMMON_C)[0]
        assert mu and all(isinstance(m, F) for m in mu[0])
        assert (False, 0, 0) in common(RATIONAL_B_COMMON_SURD_C)
        mu = _class_solutions(RATIONAL_B_COMMON_SURD_C)[0]
        assert mu and [type(m) for m in mu[0]] == [Surd, F, Surd, Surd]
        assert any(surd and lin1 == 0 for surd, lin1, _ in
                   common(SURD_B_COMMON_C))

    def test_a_repeated_root_gives_one_solution(self):
        # b = 2 is a root of both q2 and q1 at RATIONAL_B_COMMON_C, and
        # b = 5/2 a double root of q1 at RATIONAL_B_COMMON_SURD_C
        assert quadratic_roots(1, -4, 4) == [(4, 2)]
        for a in (RATIONAL_B_COMMON_C, RATIONAL_B_COMMON_SURD_C):
            solutions, _ = _class_solutions(a)
            assert len(solutions) == 1
            assert solutions[0][1] == F(2 if a == RATIONAL_B_COMMON_C
                                        else F(5, 2))

    @given(st.tuples(*[st.fractions(-4, 6, max_denominator=7)] * 4),
           st.lists(st.tuples(*[st.integers(-9, 9)] * 4), min_size=4,
                    max_size=4), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_scaffold_equals_the_fraction_oracle(self, mu, entries, den):
        assume(0 not in mu)
        x = [Mat2(*(F(v, den) for v in e)) for e in entries]
        assert _scaffold(x, mu) == _oracle_scaffold(x, mu)

    @given(st.sampled_from(["classic", "five-point"]), invertible, invertible,
           st.tuples(*[st.integers(-5, 5).map(lambda v: F(v, 2))] * 4),
           st.sampled_from(["none", "p", "mu", "zero c", "zero cycle",
                            "int mu", "huge", "tiny"]),
           st.integers(0, 3), st.fractions(-3, 3, max_denominator=5))
    @settings(max_examples=200, deadline=None)
    def test_exact_report_equals_the_mat2_oracle(self, name, a, b, m, change,
                                                 k, t):
        # the image X -> A X B + M of a T4 and of its witness
        src, w = ((CLASSIC, classic_witness()) if name == "classic"
                  else (FIVE_POINT.x, FIVE_POINT.witness()))
        x = [_mul(_mul(a, xk), b) + Mat2(*m) for xk in src]
        p, c, mu = _mul(_mul(a, w.p), b) + Mat2(*m), \
            [_mul(_mul(a, ck), b) for ck in w.c], list(w.mu)
        if change == "p":
            p = p + Mat2(t, 0, 0, 1 - t)
        elif change == "mu":
            mu[k] += t
        elif change == "zero c":
            c[k] = Mat2.zero()
        elif change == "zero cycle":
            # every residual, det and sum vanishes; only C_k = 0 fails
            x, c = [p] * 4, [Mat2.zero()] * 4
        elif change == "int mu":
            mu = [int(v) for v in mu]
        elif change in ("huge", "tiny"):
            s = F(10) ** (400 if change == "huge" else -400)
            x, p, c = [xk.scale(s) for xk in x], p.scale(s), \
                [ck.scale(s) for ck in c]
        witness = T4Witness(w.ordering, p, tuple(c), tuple(mu))
        got, want = check_t4_witness(x, witness, 0), _oracle_report(x, witness)
        assert got == want
        assert [type(v) for v in (*got.eq_residual_sq, *got.c_dets,
                                  got.c_sum_norm_sq, got.mu_margin)] == \
            [type(v) for v in (*want.eq_residual_sq, *want.c_dets,
                               want.c_sum_norm_sq, want.mu_margin)]
        if change in ("none", "huge", "tiny") or (
                change == "int mu" and name == "classic"):
            assert got.accepted
