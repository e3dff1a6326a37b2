"""T4-configuration detection, witness validation, and laminate unrolling.

For fixed mu the defining system is linear in the base point and the four
rank-one increments, and one closed form solves it for a batch of mu, in
float or in exact rationals; its Jacobian in mu comes from the same
coefficients.  Detection runs a multi-start Newton iteration on mu over a
seed grid, vectorized across seeds, once per cyclic class of orderings; the
other rotations are read off the same scaffold and re-checked.  A "not
found" result is not a certificate of absence.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import GeometryError, Mat2, rank_one_connected
from .scalar import DEFAULT_TOL, EXACT, Scalar

MU_CAP = 1e3
NEWTON_ITERS = 30  # Newton steps per seed before it is given up
SEED_GRID_1D = tuple(1 + 2 ** j / 8 for j in range(10))


@dataclass(frozen=True)
class T4Witness:
    ordering: tuple[int, int, int, int]
    p: Mat2
    c: tuple[Mat2, Mat2, Mat2, Mat2]
    mu: tuple[Scalar, Scalar, Scalar, Scalar]

    def corners(self) -> tuple[Mat2, Mat2, Mat2, Mat2, Mat2]:
        """Q_0 = P, Q_k = P + C_1 + ... + C_k (Q_4 = P when sum C_i = 0)."""
        q = [self.p]
        for ci in self.c:
            q.append(q[-1] + ci)
        return tuple(q)

    def reconstructed(self) -> tuple[Mat2, Mat2, Mat2, Mat2]:
        """The four configuration points implied by (P, C, mu)."""
        out = []
        acc = self.p
        for k in range(4):
            out.append(acc + self.c[k].scale(self.mu[k]))
            acc = acc + self.c[k]
        return tuple(out)


@dataclass(frozen=True)
class T4Report:
    eq_residual_sq: tuple[Scalar, Scalar, Scalar, Scalar]
    c_dets: tuple[Scalar, Scalar, Scalar, Scalar]
    c_sum_norm_sq: Scalar
    mu_margin: Scalar
    accepted: bool


def _float_mat(m: Mat2) -> Mat2:
    return Mat2(*(float(e) for e in m.entries()))


def check_t4_witness(x, w: T4Witness, tol: Scalar = 0) -> T4Report:
    """Residual report for a candidate witness against four given matrices.

    When the witness and the inputs are in different scalar modes the whole
    comparison is performed in float.
    """
    if w.p.mode != x[0].mode:
        x = [_float_mat(m) for m in x]
        w = T4Witness(w.ordering, _float_mat(w.p),
                      tuple(_float_mat(c) for c in w.c),
                      tuple(float(m) for m in w.mu))
    recon = w.reconstructed()
    res_sq = tuple((x[i] - recon[i]).frob_sq() for i in range(4))
    dets = tuple(ci.det() for ci in w.c)
    csum = w.c[0] + w.c[1] + w.c[2] + w.c[3]
    margin = min(w.mu) - 1
    scale = max(1, max(float(xi.frob_sq()) for xi in x))
    ok = all(float(r) <= float(tol) ** 2 * scale for r in res_sq)
    ok = ok and all(abs(float(d)) <= max(float(tol), float(tol) ** 2 * scale)
                    for d in dets)
    ok = ok and float(csum.frob_sq()) <= float(tol) ** 2 * scale
    ok = ok and all(not ci.is_zero() for ci in w.c)
    ok = ok and margin > tol
    return T4Report(res_sq, dets, csum.frob_sq(), margin, ok)


def _solve(mu: np.ndarray, xflat: np.ndarray, jacobian: bool = False):
    """Closed-form solution for (P, C) at each mu in the batch.

    The system X_k = Q_k + mu_k C_k with corners Q_0 = P, Q_{k+1} = Q_k + C_k
    and sum C_k = 0 has determinant -D, D = prod mu_j - prod (mu_j - 1).
    Closing the cycle gives P = sum_k w_k X_k with
    w_k = prod_{j<k} mu_j prod_{j>k} (mu_j - 1) / D; walking the corners
    then gives C_k = (X_k - Q_k) / mu_k.  Both are kept as coefficients,
    P = w @ X and C = G @ X, so G[i, k] is the entry (i+1, k) of A^-1 and
    the Jacobian d det(C_i) / d mu_k = -G[i, k] <adj C_i, C_k> needs no
    further solve.

    mu: (N, 4), every mu_k nonzero (callers keep mu > 1); xflat: (4, 4)
    flattened input matrices.  Float arrays and object arrays of Fractions
    both work.  Returns (P, C, dets[, jac]) with shapes (N, 4), (N, 4, 4),
    (N, 4)[, (N, 4, 4)].  Float rows with D == 0 come out non-finite; an
    exact D == 0 returns None.
    """
    m1 = mu - 1
    d = mu.prod(axis=1) - m1.prod(axis=1)
    if mu.dtype == object and (d == 0).any():
        return None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.stack([mu[:, :k].prod(axis=1) * m1[:, k + 1:].prod(axis=1)
                      for k in range(4)], axis=1) / d[:, None]
        q = w  # coefficients of the corner Q_k
        g = []
        for k in range(4):
            gk = -q / mu[:, k:k + 1]
            gk[:, k] += 1 / mu[:, k]
            g.append(gk)
            q = q + gk
        g = np.stack(g, axis=1)
        p = w @ xflat
        c = g @ xflat
        dets = c[:, :, 0] * c[:, :, 3] - c[:, :, 1] * c[:, :, 2]
        if not jacobian:
            return p, c, dets
        adj = np.stack([c[:, :, 3], -c[:, :, 2], -c[:, :, 1], c[:, :, 0]],
                       axis=-1)
        jac = -g * np.einsum("nie,nke->nik", adj, c)
    return p, c, dets, jac


def _default_seed_grid():
    return np.array(list(itertools.product(SEED_GRID_1D, repeat=4)))


def solve_t4_ordering(x, seeds=None, tol: float = 1e-9):
    """Search for a witness for one fixed ordering of four matrices.

    Returns (witness, reason); witness is None when no seed converges or a
    precondition fails.
    """
    for i in range(4):
        for j in range(i + 1, 4):
            if x[i] == x[j]:
                return None, "points not pairwise distinct"
            if rank_one_connected(x[i], x[j], DEFAULT_TOL):
                return None, "rank-one connection present"
    if seeds is None:
        seeds = _default_seed_grid()
    xflat = np.array([[float(e) for e in xi.entries()] for xi in x])
    scale = max(1.0, float(np.abs(xflat).max()) ** 2)
    mu = np.array(seeds, dtype=float).copy()
    converged = np.zeros((0, 4))
    for _ in range(NEWTON_ITERS):
        if mu.shape[0] == 0:
            break
        _, _, f0, jac = _solve(mu, xflat, jacobian=True)
        good = np.isfinite(f0).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))
        hit = good & (np.abs(f0).max(axis=1) <= tol * scale) & \
            (mu > 1.0 + tol).all(axis=1) & (mu < MU_CAP).all(axis=1)
        if hit.any():
            converged = mu[hit]
            # polish: quadratic convergence makes a few extra steps enough
            # for the exact-rational recovery below
            for _ in range(3):
                _, _, fc, jc = _solve(converged, xflat, jacobian=True)
                fine = np.isfinite(fc).all(axis=1) & \
                    np.isfinite(jc).all(axis=(1, 2)) & \
                    (np.abs(np.linalg.det(jc)) > 1e-14)
                if not fine.all():
                    break
                converged = converged + np.linalg.solve(
                    jc, -fc[:, :, None])[:, :, 0]
            break
        detj = np.abs(np.linalg.det(np.where(good[:, None, None], jac,
                                             np.eye(4)[None])))
        good &= detj > 1e-14
        delta = np.zeros_like(mu)
        if good.any():
            delta[good] = np.linalg.solve(jac[good],
                                          -f0[good][:, :, None])[:, :, 0]
        # damp large steps to keep mu in range
        norm = np.abs(delta).max(axis=1)
        factor = np.minimum(1.0, 2.0 / np.maximum(norm, 1e-30))
        mu = mu + delta * factor[:, None]
        alive = good & (mu > 1.0).all(axis=1) & (mu < MU_CAP).all(axis=1) \
            & np.isfinite(mu).all(axis=1)
        mu = mu[alive]
    if converged.shape[0] == 0:
        return None, "no converged seed"
    # deterministic pick: smallest mu vector lexicographically after rounding
    order = np.lexsort(np.round(converged, 8).T[::-1])
    best = converged[order[0]]
    witness = _build_witness(x, best, tol)
    if witness is None:
        return None, "converged seed failed validation"
    return witness, "ok"


def _build_witness(x, mu_float, tol):
    def witness(mu, xflat):
        sol = _solve(np.array([mu], dtype=xflat.dtype), xflat)
        if sol is None:
            return None
        p, c, _ = sol
        return T4Witness((0, 1, 2, 3), Mat2(*p[0]),
                         tuple(Mat2(*c[0, k]) for k in range(4)), mu)

    if all(xi.mode == EXACT for xi in x):
        xq = np.array([[Fraction(e) for e in xi.entries()] for xi in x],
                      dtype=object)
        for cap in (10, 100, 10 ** 3, 10 ** 4, 10 ** 6):
            w = witness(tuple(Fraction(m).limit_denominator(cap)
                              for m in mu_float), xq)
            if w is not None and witness_certified(x, w, tol):
                return w
    xf = [_float_mat(xi) for xi in x]
    w = witness(tuple(float(m) for m in mu_float),
                np.array([xi.entries() for xi in xf]))
    if witness_certified(xf, w, tol):
        return w
    return None


def witness_certified(x, w: T4Witness, tol: float = 1e-9) -> bool:
    """Whether w passes check_t4_witness on x taken in w's ordering, at the
    tolerance detection accepts a witness at: 0 for an exact witness,
    max(sqrt(tol), 1e-6) for a float one, tol being the Newton tolerance."""
    ordered = [x[i] for i in w.ordering]
    check_tol = 0 if w.p.mode == EXACT else max(float(tol) ** 0.5, 1e-6)
    return check_t4_witness(ordered, w, check_tol).accepted


def _rotate(seq, r: int) -> tuple:
    return tuple(seq[r:]) + tuple(seq[:r])


def cyclic_class(ordering) -> tuple:
    """Canonical representative of the cyclic rotation class of an ordering."""
    return min(_rotate(ordering, r) for r in range(4))


@dataclass(frozen=True)
class Detection:
    witnesses: tuple[T4Witness, ...]
    failures: dict

    def found(self) -> bool:
        return bool(self.witnesses)


def _search(x, perm, seeds, tol):
    """Newton search for x taken in the order perm: a witness carrying perm,
    or the failure reason."""
    w, reason = solve_t4_ordering([x[i] for i in perm], seeds=seeds, tol=tol)
    return reason if w is None else T4Witness(perm, w.p, w.c, w.mu)


def detect_t4(x, tol: float = 1e-9, seeds=None) -> Detection:
    """Witnesses for all 24 orderings, from one Newton search per cyclic class.

    A T4 is a cycle, so the four rotations of an ordering describe one
    scaffold read from different corners.  Only the class representative
    (the rotation that starts with 0) is searched.  Rotation r of its
    witness starts at the corner Q_r, with C and mu rotated by r; each such
    derived witness is re-checked with witness_certified, and one that fails
    gets a search of its own.  A failure reason holds for the whole class:
    the preconditions do not depend on the ordering, and rotating the
    ordering rotates the Newton iteration in mu, which maps the default
    seed grid onto itself.  Witnesses come in itertools.permutations order;
    rotations of one scaffold are all reported.
    """
    outcome = {}
    for tail in itertools.permutations(range(1, 4)):
        rep = (0,) + tail
        found = _search(x, rep, seeds, tol)
        outcome[rep] = found
        if isinstance(found, str):
            outcome.update((_rotate(rep, r), found) for r in range(1, 4))
            continue
        corners = found.corners()
        for r in range(1, 4):
            w = T4Witness(_rotate(rep, r), corners[r], _rotate(found.c, r),
                          _rotate(found.mu, r))
            outcome[w.ordering] = (w if witness_certified(x, w, tol)
                                   else _search(x, w.ordering, seeds, tol))
    perms = list(itertools.permutations(range(4)))
    return Detection(
        tuple(outcome[p] for p in perms if not isinstance(outcome[p], str)),
        {p: outcome[p] for p in perms if isinstance(outcome[p], str)})


# --- laminate measures ---------------------------------------------------


@dataclass(frozen=True)
class DiscreteLaminate:
    atoms: tuple  # ((Mat2, weight), ...)
    barycenter: Mat2
    off_support_mass: Scalar


def laminate_unroll(x, w: T4Witness, target_corner: int,
                    rounds: int) -> DiscreteLaminate:
    """Unit mass at a corner, split backwards through the cyclic scaffold.

    Each split replaces the unique off-support atom Q_k with
    (1/mu_k) X_k + (1 - 1/mu_k) Q_{k-1}; the split direction is the rank-one
    increment C_k and the mean is preserved exactly.
    """
    if not 0 <= target_corner <= 3:
        raise GeometryError("target_corner must be in 0..3")
    if rounds < 0:
        raise GeometryError("rounds must be nonnegative")
    exact = x[0].mode == EXACT
    report = check_t4_witness(x, w, 0 if exact else DEFAULT_TOL)
    if not report.accepted:
        raise GeometryError("invalid T4 witness")
    one = Fraction(1) if exact else 1.0
    q = w.corners()  # Q_0..Q_4 with Q_4 == Q_0
    target = q[target_corner]
    weights = {}  # mass accumulated at each X_i
    off_atom = target
    off_mass = one
    k = target_corner if target_corner >= 1 else 4
    for _ in range(4 * rounds):
        mu_k = w.mu[k - 1]
        weights[k - 1] = weights.get(k - 1, 0 * one) + off_mass / mu_k
        off_mass = off_mass * (one - one / mu_k)
        off_atom = q[k - 1]
        k = k - 1 if k - 1 >= 1 else 4
    atoms = [(x[i], weights[i]) for i in sorted(weights)]
    atoms.append((off_atom, off_mass))
    bary = None
    for m, wt in atoms:
        term = m.scale(wt)
        bary = term if bary is None else bary + term
    if exact and bary != target:
        raise GeometryError("barycenter drifted during unrolling")
    return DiscreteLaminate(tuple(atoms), bary, off_mass)
