"""T4 witness checks, scaffold solve, Newton detection, laminate unrolling."""
import itertools
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from rohull import constructions, t4
from rohull.core import Mat2
from rohull.t4 import (
    SEED_GRID_1D,
    T4Witness,
    _det_solve4,
    _newton_search,
    _pairwise_dets,
    _residual,
    _solve,
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


def _float_pairwise_dets(x):
    """A[j, k] = det(X_j - X_k) for four flattened float matrices."""
    return np.array([[(x[j, 0] - x[k, 0]) * (x[j, 3] - x[k, 3])
                      - (x[j, 1] - x[k, 1]) * (x[j, 2] - x[k, 2])
                      for k in range(4)] for j in range(4)])


class TestClosedFormSolve:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.mu = 1 + 4 * rng.random((64, 4))
        self.x = rng.normal(size=(4, 4))
        self.a = _float_pairwise_dets(self.x)

    def test_float_matches_reference_solve(self):
        p, c, dets = _solve(self.mu, self.x)
        rhs = np.vstack([self.x, np.zeros((1, 4))])
        for n, mu in enumerate(self.mu):
            ref = np.linalg.solve(_reference_system(mu), rhs)
            np.testing.assert_allclose(p[n], ref[0], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(c[n], ref[1:], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(
            dets, c[:, :, 0] * c[:, :, 3] - c[:, :, 1] * c[:, :, 2])

    def test_residual_is_the_solved_dets(self):
        f, _ = _residual(self.mu.T, self.a)
        np.testing.assert_allclose(f.T, _solve(self.mu, self.x)[2],
                                   rtol=1e-12, atol=1e-12)

    def test_residual_from_the_mat2_pairwise_dets(self):
        mats = [Mat2(*(F(v) for v in row)) for row in self.x]
        f, _ = _residual(self.mu.T, _pairwise_dets(mats))
        np.testing.assert_allclose(f.T, _solve(self.mu, self.x)[2],
                                   rtol=1e-12, atol=1e-12)

    def test_jacobian_matches_central_differences(self):
        _, jac = _residual(self.mu.T, self.a)
        h = 1e-6
        for k in range(4):
            step = np.zeros(4)
            step[k] = h
            ahead = _solve(self.mu + step, self.x)[2]
            behind = _solve(self.mu - step, self.x)[2]
            slope = (ahead - behind) / (2 * h)
            np.testing.assert_allclose(jac[:, k].T, slope,
                                       rtol=1e-5, atol=1e-6)

    def test_stacked_pairwise_dets_serve_consecutive_columns(self):
        other = _float_pairwise_dets(self.x[[2, 0, 3, 1]])
        f, jac = _residual(self.mu.T, np.stack([self.a, other]), [40, 24])
        f0, jac0 = _residual(self.mu.T[:, :40], self.a)
        f1, jac1 = _residual(self.mu.T[:, 40:], other)
        np.testing.assert_array_equal(f, np.hstack([f0, f1]))
        np.testing.assert_array_equal(jac, np.concatenate([jac0, jac1], 2))

    def test_exact_solution_satisfies_the_equations(self):
        rng = random.Random(3)
        for _ in range(50):
            mu = [1 + F(rng.randint(1, 40), rng.randint(1, 9))
                  for _ in range(4)]
            x = np.array([[F(rng.randint(-9, 9), rng.randint(1, 5))
                           for _ in range(4)] for _ in range(4)],
                         dtype=object)
            p, c, _ = _solve(np.array([mu], dtype=object), x)
            p, c = p[0], c[0]
            assert all(isinstance(e, F) for e in (*p, *c.ravel()))
            q = p
            for k in range(4):
                assert list(q + mu[k] * c[k] - x[k]) == [0] * 4
                q = q + c[k]
            assert list(c.sum(axis=0)) == [0] * 4

    def test_singular_mu(self):
        # prod mu = prod (mu - 1) = -8/7: the system has no unique solution
        mu = (F(2), F(2), F(2), F(-1, 7))
        x = np.array([[F(e) for e in xi.entries()] for xi in CLASSIC],
                     dtype=object)
        assert _solve(np.array([mu], dtype=object), x) is None
        p, c, dets = _solve(np.array([mu], dtype=float), x.astype(float))
        f, jac = _residual(np.array([mu], dtype=float).T,
                           _pairwise_dets(CLASSIC))
        assert not np.isfinite(p).any()
        assert not np.isfinite(c).any()
        assert not np.isfinite(dets).any()
        assert not np.isfinite(f).any()
        assert not np.isfinite(jac).any()


class TestClosedForm4x4:
    def test_matches_lapack(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(200, 4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=(200, 4))
        det, x = _det_solve4(m.transpose(1, 2, 0), b.T)
        np.testing.assert_allclose(det, np.linalg.det(m), rtol=1e-12)
        np.testing.assert_allclose(
            x.T, np.linalg.solve(m, b[:, :, None])[:, :, 0],
            rtol=1e-10, atol=1e-12)

    def test_singular_rows_drop_quietly(self):
        rng = np.random.default_rng(12)
        m = rng.integers(-5, 6, size=(6, 4, 4)).astype(float)
        m[0, 3] = m[0, 1]  # two equal rows
        m[1, :, 2] = 0.0  # a zero column
        m[2, 2] = 2 * m[2, 0] - m[2, 1]  # a dependent row
        m[3] = 0.0
        m[4, 0] = m[4, 1] = 0.0
        b = rng.normal(size=(6, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det, x = _det_solve4(m.transpose(1, 2, 0), b.T)
        assert list(det[:5]) == [0.0] * 5
        assert not np.isfinite(x[:, :5]).any()
        # the Newton step keeps only rows with |det J| > 1e-14
        assert list(np.abs(det) > 1e-14) == [False] * 5 + \
            [abs(np.linalg.det(m[5])) > 1e-14]


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
        assert reason == "no converged seed"


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


def _counting_search(monkeypatch):
    """Record every ordering detect_t4 hands to the Newton search."""
    calls = []
    search = t4._newton_search

    def counted(x, orderings, *args, **kwargs):
        calls.extend(tuple(o) for o in orderings)
        return search(x, orderings, *args, **kwargs)

    monkeypatch.setattr(t4, "_newton_search", counted)
    return calls


def _rotate(seq, r):
    return tuple(seq[r:]) + tuple(seq[:r])


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

    @pytest.mark.parametrize("x", [
        CLASSIC, list(constructions.five_point_build(F(1, 2)).x)],
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
        seeds = list(itertools.product(SEED_GRID_1D[1:9:2], repeat=4))
        expected = detect_t4(CLASSIC, seeds=seeds)
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
        det_res = detect_t4(CLASSIC, seeds=seeds)
        assert len(rejected) == 1
        assert len(calls) == 7
        assert calls[6] == (1, 2, 3, 0)
        redone = next(w for w in det_res.witnesses
                      if w.ordering == (1, 2, 3, 0))
        ordered = [CLASSIC[i] for i in redone.ordering]
        assert check(ordered, redone, 0).accepted
        assert det_res == expected


SEEDS_256 = list(itertools.product(SEED_GRID_1D[1:9:2], repeat=4))
REPRESENTATIVES = [(0,) + p for p in itertools.permutations(range(1, 4))]


class TestSharedNewtonLoop:
    @pytest.mark.parametrize("x", [
        CLASSIC, list(constructions.five_point_build(F(1, 2)).x),
        [Mat2.diag(F(k), F(5 - k)) for k in (1, 2, 3, 4)]],
        ids=["classic", "five-point", "coplanar"])
    def test_batched_equals_one_ordering_searches(self, x):
        batched, _ = _newton_search(x, REPRESENTATIVES, SEEDS_256, 1e-9)
        for perm, found in zip(REPRESENTATIVES, batched):
            w, reason = solve_t4_ordering([x[i] for i in perm],
                                          seeds=SEEDS_256)
            if w is None:
                assert found == reason
            else:
                assert found == T4Witness(perm, w.p, w.c, w.mu)

    def test_gated_quadruple_runs_no_iteration(self):
        pts = [Mat2.diag(F(0), F(0)), Mat2.diag(F(1), F(0)),
               Mat2.diag(F(1), F(-3)), Mat2.diag(F(-3), F(-1))]
        assert detect_t4(pts).newton_alive == ()

    def test_alive_counts_start_with_every_seed_of_every_class(self):
        det_res = detect_t4(CLASSIC, seeds=SEEDS_256)
        alive = det_res.newton_alive
        assert alive[0] == 6 * 256
        assert 1 <= len(alive) <= t4.NEWTON_ITERS
        assert all(a >= b for a, b in zip(alive, alive[1:]))
        # the counts are data about the run, not part of the result
        assert det_res == t4.Detection(det_res.witnesses, det_res.failures)
