"""End-to-end acceptance checks.

Each test prints a single CRITERION line so the suite output doubles as a
scoreboard.  Criteria cover: the staircase discontinuity, both spiral
constructions, the five-point set, T4 detection, the rank-one plane-pair
decomposition, polyconvex hull equivalence with a brute-force two-step
oracle, and CLI determinism.
"""
import itertools
import json
import math
import random
import time
from fractions import Fraction as F

import numpy as np

from rohull.cli import main as cli_main
from rohull.constructions import (
    StaircaseConfig,
    SymSpiralConfig,
    TriSpiralConfig,
    five_point_build,
    five_point_gap,
    staircase_iterate,
    staircase_points,
    sym_spiral,
    tri_spiral,
)
from rohull.core import Mat2, combine, det, det_cross
from rohull.hulls import point_to_set_dist_sq, separator_check
from rohull.pchull import pc_hull, plane_pair
from rohull.t4 import check_t4_witness, detect_t4, laminate_unroll


def _verdict(num, label, fn, budget):
    t0 = time.perf_counter()
    try:
        fn()
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, f"runtime {elapsed:.2f}s over {budget}s"
    except BaseException:
        print(f"CRITERION {num}: FAIL - {label}")
        raise
    print(f"CRITERION {num}: PASS - {label} ({elapsed:.2f}s)")


def test_criterion_1_staircase_discontinuity():
    def body():
        k0 = staircase_points(StaircaseConfig(n_max=30, perturbation_index=2))
        limit = Mat2.diag(0, 1)
        assert point_to_set_dist_sq(limit, k0) == F(1, 4)
        for n in range(2, 21):
            cfg = StaircaseConfig(n_max=30, perturbation_index=n)
            # the perturbed set contains K0, so its symmetric Hausdorff
            # distance from K0 reduces to the perturbation's own distance
            gap_sq = point_to_set_dist_sq(staircase_perturbed_point(n), k0)
            assert gap_sq <= F(1, 4 ** n)
            chain = staircase_iterate(cfg)
            assert chain[-1] == Mat2.diag(0, 1)
    _verdict(1, "staircase perturbation reaches (0,1) while moving the "
                "input by at most 2^-N", body, 1.0)


def staircase_perturbed_point(n):
    h = F(1, 2 ** (n + 1))
    return Mat2.diag(1 - h, h)


def test_criterion_2_upper_triangular_spiral():
    def body():
        cfg = TriSpiralConfig.standard_square()
        assert cfg.lambdas() == (F(1, 2),) * 4
        xs = tri_spiral(cfg, 40)
        first = [(p.a11, p.a22, p.a12) for p in xs[1:5]]
        assert first == [(-1, 1, F(1, 2)), (1, 1, F(1, 4)),
                         (1, -1, F(1, 8)), (-1, -1, F(1, 16))]
        anchors = cfg.anchors()
        for i, p in enumerate(xs):
            assert det(p - anchors[i % 4]) == 0
        separator_check(anchors)
    _verdict(2, "square spiral contracts with lambda = 1/2 on certified "
                "rank-one steps", body, 1.0)


def test_criterion_3_symmetric_spiral():
    def body():
        cfg = SymSpiralConfig.standard_square(1e-3)
        res = sym_spiral(cfg, 12)
        assert len(res.cycles) == 12
        for cyc in res.cycles:
            assert all(r <= 1e-10 for r in cyc.det_residual_rel)
            assert cyc.ratio < 17 / 32
            assert cyc.branch_error <= 1e-12
        last = res.iterates[-1]
        p0 = Mat2(cfg.x1, 0.0, 0.0, cfg.y2)
        assert (last - p0).frob() <= 1e-9
    _verdict(3, "symmetric spiral completes 12 cycles within det and "
                "contraction tolerances", body, 1.0)


def test_criterion_4_five_point_set():
    def body():
        for eps in (F(1, 2), F(1, 4), F(1, 3), F(3, 4)):
            cfg = five_point_build(eps)
            if eps == F(1, 2):
                assert cfg.mu == (F(16, 3), F(7, 3), F(41, 6), F(65, 24))
                assert 1 + cfg.mu[3] / F(5, 8) == cfg.mu[0]
            w = cfg.witness()
            rep = check_t4_witness(cfg.x, w)
            assert rep.accepted
            assert rep.eq_residual_sq == (0, 0, 0, 0)
            for i, xi in enumerate(cfg.x):
                assert det(xi) == 0
                for xj in cfg.x[i + 1:]:
                    assert det(xi - xj) != 0
            gap = five_point_gap(cfg)
            assert gap > 0
            lam = laminate_unroll(cfg.x, w, target_corner=0, rounds=10)
            assert lam.barycenter == cfg.p[0]
            expected_mass = 1
            for m in cfg.mu:
                expected_mass = expected_mass * (1 - 1 / m)
            assert lam.off_support_mass == expected_mass ** 10
    _verdict(4, "five-point set separates the corner from the lamination "
                "hull while laminates converge to it", body, 2.0)


def test_criterion_5_t4_detection():
    def body():
        classic = [Mat2.diag(F(-1), F(3)), Mat2.diag(F(3), F(1)),
                   Mat2.diag(F(1), F(-3)), Mat2.diag(F(-3), F(-1))]
        found = detect_t4(classic)
        assert found.witnesses
        for w in found.witnesses:
            assert all(abs(float(m) - 2.0) <= 1e-6 for m in w.mu)

        cfg = five_point_build(F(1, 2))
        found = detect_t4(cfg.x)
        exact = {(0, 1, 2, 3): (F(16, 3), F(7, 3), F(41, 6), F(65, 24))}
        hit = [w for w in found.witnesses if w.ordering == (0, 1, 2, 3)]
        assert hit
        for m, m_exp in zip(hit[0].mu, exact[(0, 1, 2, 3)]):
            assert abs(float(m) - float(m_exp)) <= 1e-6

        rng = random.Random(90125)
        for _ in range(100):
            a = Mat2(*(F(rng.randint(-9, 9)) for _ in range(4)))
            u = (F(rng.randint(1, 5)), F(rng.randint(-5, 5)))
            v = (F(rng.randint(1, 5)), F(rng.randint(-5, 5)))
            b = a + Mat2(u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])
            c = Mat2(*(F(rng.randint(-9, 9)) for _ in range(4)))
            d = Mat2(*(F(rng.randint(-9, 9)) for _ in range(4)))
            res = detect_t4([a, b, c, d])
            assert not res.found()
            assert any("rank-one connection present" == r
                       for r in res.failures.values())
    _verdict(5, "detector recovers both reference mu vectors and rejects "
                "gated quadruples", body, 30.0)


def _truncate_rank1(d):
    u, s, vt = np.linalg.svd(d, full_matrices=False)
    s = s.copy()
    s[1:] = 0.0
    return (u * s) @ vt


def _det2(z):
    return z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0]


def _plane_trial_2x2(rng, tol):
    """Sample the solution set of det(Z-X0) = det(Z-Y0) = 0 directly.

    Subtracting the two conditions cancels the quadratic part, leaving an
    affine constraint; restricted to that hyperplane the system is a single
    quadratic along any line, solved in closed form.  No factorization of
    the rank-one difference is involved, so the sample is independent of
    the plane construction under test.
    """
    x0 = rng.normal(size=(2, 2))
    y0 = x0 + np.outer(rng.normal(size=2), rng.normal(size=2))
    pp = plane_pair(tuple(map(tuple, x0)), tuple(map(tuple, y0)), tol=tol)

    def ell(z):
        return _det2(z - y0) - _det2(z - x0)

    grad = np.zeros((2, 2))
    basis = np.eye(4).reshape(4, 2, 2)
    c0 = ell(np.zeros((2, 2)))
    for e in basis:
        grad += (ell(e) - c0) * e
    gg = float((grad * grad).sum())

    samples = []
    for _ in range(3):
        z = rng.normal(size=(2, 2)) * 2.0
        z = z - (ell(z) / gg) * grad
        d = rng.normal(size=(2, 2))
        d = d - (float((grad * d).sum()) / gg) * grad
        # det((z - x0) + t d) = det(d) t^2 + cross t + det(z - x0)
        a = _det2(d)
        w = z - x0
        b = (w[0, 0] * d[1, 1] + d[0, 0] * w[1, 1]
             - w[0, 1] * d[1, 0] - d[0, 1] * w[1, 0])
        c = _det2(w)
        disc = b * b - 4 * a * c
        if abs(a) < 1e-12 or disc < 0:
            continue
        for t in ((-b + math.sqrt(disc)) / (2 * a),
                  (-b - math.sqrt(disc)) / (2 * a)):
            samples.append(z + t * d)
    good = 0
    for z in samples:
        scale = 1.0 + float(np.abs(z).max())
        if max(abs(_det2(z - x0)), abs(_det2(z - y0))) > 1e-9 * scale:
            continue
        zt = tuple(map(tuple, z))
        assert pp.p1.contains(zt, tol) or pp.p2.contains(zt, tol), \
            "solution sample escaped both planes"
        good += 1
    return good


def _minor_residuals(z, x0, y0):
    out = []
    for base in (x0, y0):
        d = z - base
        m, n = d.shape
        for i, j in itertools.combinations(range(m), 2):
            for k, l in itertools.combinations(range(n), 2):
                out.append(d[i, k] * d[j, l] - d[i, l] * d[j, k])
    return np.array(out)


def _plane_trial_rect(rng, shape, tol):
    """Rank-condition sampling for the non-square shapes.

    A short run of alternating rank-one projections lands near the solution
    variety; a Gauss-Newton polish on the vanishing-minor equations then
    drives the residual to rounding level.
    """
    m, n = shape
    x0 = rng.normal(size=(m, n))
    y0 = x0 + np.outer(rng.normal(size=m), rng.normal(size=n))
    pp = plane_pair(tuple(map(tuple, x0)), tuple(map(tuple, y0)), tol=tol)
    z = rng.normal(size=(m, n)) * 2.0
    for _ in range(150):
        z = x0 + _truncate_rank1(z - x0)
        z = y0 + _truncate_rank1(z - y0)
    h = 1e-7
    zf = z.flatten()
    for _ in range(25):
        base = _minor_residuals(zf.reshape(m, n), x0, y0)
        if np.abs(base).max() < 1e-13:
            break
        jac = np.empty((len(base), m * n))
        for q in range(m * n):
            zp = zf.copy()
            zp[q] += h
            jac[:, q] = (_minor_residuals(zp.reshape(m, n), x0, y0)
                         - base) / h
        step, *_ = np.linalg.lstsq(jac, -base, rcond=None)
        zf = zf + step
    z = zf.reshape(m, n)
    scale = 1.0 + float(np.abs(z).max())
    if np.abs(_minor_residuals(z, x0, y0)).max() > 1e-10 * scale:
        return None  # polish did not converge, sample discarded
    zt = tuple(map(tuple, z))
    return pp.p1.contains(zt, tol) or pp.p2.contains(zt, tol)


def test_criterion_6_plane_pair_decomposition():
    def body():
        rng = np.random.default_rng(20240809)
        tol = 1e-8
        total = 0
        for _ in range(1000):
            total += _plane_trial_2x2(rng, tol)
        assert total >= 1000, f"only {total} usable 2x2 samples"
        for shape in ((3, 2), (2, 3)):
            hits = 0
            for _ in range(100):
                out = _plane_trial_rect(rng, shape, tol)
                if out is None:
                    continue
                assert out, "converged sample escaped both planes"
                hits += 1
            assert hits >= 50, f"too few converged samples {shape}"

        # cross-plane differences always have rank 2
        for _ in range(1000):
            x0 = rng.normal(size=(2, 2))
            y0 = x0 + np.outer(rng.normal(size=2), rng.normal(size=2))
            pp = plane_pair(tuple(map(tuple, x0)), tuple(map(tuple, y0)),
                            tol=tol)
            a = pp.p1.matrix_at(tuple(rng.normal(size=2)))
            b = pp.p2.matrix_at(tuple(rng.normal(size=2)))
            if pp.p1.contains(b, tol) or pp.p2.contains(a, tol):
                continue
            d = np.array(a) - np.array(b)
            s = np.linalg.svd(d, compute_uv=False)
            assert s[1] > 1e-8 * (1 + s[0])
    _verdict(6, "rank-condition solutions stay inside the plane pair and "
                "cross-plane differences have rank 2", body, 5.0)


def _on_segment(g, a, b):
    d = b - a
    if d.is_zero():
        return g == a
    for ge, de in zip((g - a).entries(), d.entries()):
        if de != 0:
            t = ge / de
            break
    if not 0 <= t <= 1:
        return False
    return (g - a) == d.scale(t)


def _in_triangle(g, a, b, c):
    # barycentric solve over two independent coordinates, verified on all
    e1 = (b - a).entries()
    e2 = (c - a).entries()
    rhs = (g - a).entries()
    for i, j in itertools.combinations(range(4), 2):
        den = e1[i] * e2[j] - e1[j] * e2[i]
        if den == 0:
            continue
        u = (rhs[i] * e2[j] - rhs[j] * e2[i]) / den
        v = (e1[i] * rhs[j] - e1[j] * rhs[i]) / den
        if all(rhs[k] == u * e1[k] + v * e2[k] for k in range(4)):
            return u >= 0 and v >= 0 and u + v <= 1
        return False
    return False  # degenerate span, covered by the segment checks


def _l2_member_oracle(pts):
    """Exact two-step lamination membership for a finite matrix set.

    Step one adds segments between rank-one connected points.  Step two adds
    combinations of a step-one point with a set point: a full triangle when
    the determinant vanishes identically along the segment, a single sliver
    segment when it has an isolated root.
    """
    segs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
            if det(pts[i] - pts[j]) == 0]

    def member(g):
        if g in pts:
            return True
        for i, j in segs:
            if _on_segment(g, pts[i], pts[j]):
                return True
        for i, j in segs:
            for k in range(len(pts)):
                if k in (i, j):
                    continue
                f0 = det(pts[i] - pts[k])
                f1 = det_cross(pts[j] - pts[i], pts[i] - pts[k])
                if f0 == 0 and f1 == 0:
                    if _in_triangle(g, pts[i], pts[j], pts[k]):
                        return True
                elif f1 != 0:
                    s = -f0 / f1
                    if 0 <= s <= 1 and _on_segment(
                            g, combine(pts[i], pts[j], s), pts[k]):
                        return True
        return False

    return member


def _random_det_nonneg_set(rng, kind, size):
    if kind == 0:
        # rotation-scaling family: pairwise determinant differences are
        # sums of two squares
        pts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(size)}
        return [Mat2(F(a), F(b), F(-b), F(a)) for a, b in pts]
    if kind == 1:
        # one shared rank-one plane: all pairwise determinants vanish
        g = (F(rng.randint(1, 3)), F(rng.randint(-3, 3)))
        base = Mat2(*(F(rng.randint(-2, 2)) for _ in range(4)))
        out = {base.entries()}
        for _ in range(size - 1):
            c = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            out.add((base + Mat2(c[0] * g[0], c[0] * g[1],
                                 c[1] * g[0], c[1] * g[1])).entries())
        return [Mat2(*e) for e in out]
    while True:
        pts = [Mat2(*(F(rng.randint(-2, 2)) for _ in range(4)))
               for _ in range(size)]
        uniq = []
        for p in pts:
            if p not in uniq:
                uniq.append(p)
        if all(det(a - b) >= 0
               for a, b in itertools.combinations(uniq, 2)):
            return uniq


def test_criterion_7_pc_hull_oracle_equivalence():
    def body():
        rng = random.Random(777)
        disagreements = 0
        checked = 0
        for trial in range(200):
            k = _random_det_nonneg_set(rng, trial % 3,
                                       rng.randint(2, 5))
            h = pc_hull(k)
            member = _l2_member_oracle(k)
            for ph in h.planes:
                us = [c[0] for c in ph.vertices]
                vs = [c[1] for c in ph.vertices]
                u0, u1 = min(us), max(us)
                v0, v1 = min(vs), max(vs)
                for a in range(20):
                    for b in range(20):
                        u = u0 + (u1 - u0) * F(a, 19)
                        v = v0 + (v1 - v0) * F(b, 19)
                        g = Mat2.from_rows(ph.plane.matrix_at((u, v)))
                        checked += 1
                        if h.membership(g) != member(g):
                            disagreements += 1
        assert checked > 0
        assert disagreements == 0
    _verdict(7, "polyconvex hull membership matches the exact two-step "
                "lamination oracle on every grid point", body, 60.0)


def test_criterion_8_cli_determinism(tmp_path):
    def body():
        quad = tmp_path / "quad.json"
        quad.write_text(json.dumps(
            [[["-1", "0"], ["0", "3"]], [["3", "0"], ["0", "1"]],
             [["1", "0"], ["0", "-3"]], [["-3", "0"], ["0", "-1"]]]))
        kset = tmp_path / "kset.json"
        kset.write_text(json.dumps(
            [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]],
             [["0", "1"], ["0", "0"]]]))
        seta = tmp_path / "a.json"
        seta.write_text(json.dumps(
            {"points": [[["0", "0"], ["0", "1"]]], "segments": [],
             "order": 0}))
        setb = tmp_path / "b.json"
        setb.write_text(json.dumps(
            {"points": [[["1", "0"], ["0", "0"]]], "segments": [],
             "order": 0}))
        runs = [
            ("staircase", ["staircase", "--N", "6"]),
            ("tri-spiral", ["tri-spiral", "--steps", "12"]),
            ("sym-spiral", ["--mode", "float", "sym-spiral",
                            "--xi3", "1e-3", "--iters", "12"]),
            ("five-point", ["five-point", "--epsilon", "1/2"]),
            ("t4-detect", ["t4-detect", "--input", str(quad)]),
            ("pc-hull", ["pc-hull", "--input", str(kset)]),
            ("hausdorff", ["hausdorff", "--input-a", str(seta),
                           "--input-b", str(setb)]),
            ("usc-probe", ["usc-probe", "--N", "6"]),
        ]
        for name, argv in runs:
            blobs = []
            for tag in ("one", "two"):
                out = tmp_path / name / tag
                code = cli_main(["--out", str(out), "--csv", "--svg",
                                 *argv])
                assert code == 0, f"{name} exited {code}"
                blobs.append((out / f"{name}.json").read_bytes())
            assert blobs[0] == blobs[1], f"{name} output not deterministic"
    _verdict(8, "every CLI subcommand produces byte-identical reports on "
                "repeated runs", body, 120.0)
