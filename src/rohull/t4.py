"""T4-configuration detection, witness validation, and laminate unrolling.

For fixed mu the defining system is linear in the base point and the four
rank-one increments, and one closed form solves it for a batch of mu, in
float or in exact rationals.  The equations det C_i = 0 depend on the four
inputs only through the six numbers det(X_j - X_k), and so does their
Jacobian in mu.  Detection runs a multi-start Newton iteration on mu over a
seed grid in one loop for all six cyclic classes of orderings, vectorized
across seeds and classes, with a closed-form 4x4 step; the other rotations
are read off the same scaffold and re-checked.  A "not found" result is not
a certificate of absence.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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


def _coefficients(mu: np.ndarray):
    """The rows w and G with P = w @ X and C = G @ X at each mu in the batch.

    The system X_k = Q_k + mu_k C_k with corners Q_0 = P, Q_{k+1} = Q_k + C_k
    and sum C_k = 0 has determinant -D, D = prod mu_j - prod (mu_j - 1).
    Closing the cycle gives P = sum_k w_k X_k with
    w_k = prod_{j<k} mu_j prod_{j>k} (mu_j - 1) / D; walking the corners
    then gives C_k = (X_k - Q_k) / mu_k.  Each row of G sums to 0.

    The batch runs along the last axis: mu is (4, N), one column per mu,
    every mu_k nonzero (callers keep mu > 1); float arrays and object arrays
    of Fractions both work.  Returns (w, G) with shapes (4, N), (4, 4, N).
    Float columns with D == 0 come out non-finite; an exact D == 0 returns
    None.
    """
    m1 = mu - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        head, tail = mu[0] * mu[1], m1[2] * m1[3]
        d = head * mu[2] * mu[3] - m1[0] * m1[1] * tail
        if mu.dtype == object and (d == 0).any():
            return None
        w = np.stack([m1[1] * tail, mu[0] * tail, head * m1[3],
                      head * mu[2]])
        w /= d
        g = np.empty((4,) + mu.shape, dtype=mu.dtype)
        q = w.copy()  # coefficients of the corner Q_k
        for k in range(4):
            np.divide(q, -mu[k], out=g[k])
            g[k, k] += 1 / mu[k]
            q += g[k]
    return w, g


def _solve(mu: np.ndarray, xflat: np.ndarray):
    """Closed-form solution for (P, C) at each mu in the batch.

    mu: (N, 4); xflat: (4, 4) flattened input matrices, float or Fractions
    like mu.  Returns (P, C, dets) with shapes (N, 4), (N, 4, 4), (N, 4),
    dets[:, i] being det C_i, or None when an exact mu makes the system
    singular.
    """
    coefficients = _coefficients(mu.T)
    if coefficients is None:
        return None
    w, g = coefficients
    with np.errstate(invalid="ignore", over="ignore"):
        p = w.T @ xflat
        c = g.transpose(2, 0, 1) @ xflat
        dets = c[:, :, 0] * c[:, :, 3] - c[:, :, 1] * c[:, :, 2]
    return p, c, dets


def _pairwise_dets(x) -> np.ndarray:
    """A[j, k] = det(X_j - X_k), computed in x's scalar mode, as floats."""
    a = np.zeros((4, 4))
    for j, k in itertools.combinations(range(4), 2):
        a[j, k] = a[k, j] = float((x[j] - x[k]).det())
    return a


def _residual(mu: np.ndarray, a: np.ndarray, sizes=None):
    """Newton residual f_i = det C_i and Jacobian df_i / dmu_k at each mu.

    det is a quadratic form on 2x2 matrices and each row g_i of G sums to 0,
    so with A[j, k] = det(X_j - X_k) and M = G A G^T, det C_i = -M_ii / 2
    and <adj C_i, C_k> = -M_ik; hence df_i / dmu_k = -G_ik <adj C_i, C_k>
    = G_ik M_ik.  The inputs enter only through these six numbers.

    mu: (4, N) floats, one column per mu.  a is one (4, 4) matrix, or a
    stack (K, 4, 4) whose k-th entry serves the next sizes[k] columns.
    Returns (f, jac) with shapes (4, N), (4, 4, N); float columns with
    D == 0 come out non-finite.
    """
    if sizes is None:
        a, sizes = a[None], [mu.shape[1]]
    _, g = _coefficients(mu)
    m = np.empty_like(g)
    with np.errstate(invalid="ignore", over="ignore"):
        ends = np.cumsum(sizes)
        for ak, lo, hi in zip(a, ends - sizes, ends):
            gs = g[..., lo:hi]
            # M_ik = g_i . (A g_k)
            np.einsum("ijn,kjn->ikn", gs, np.matmul(ak, gs), out=m[..., lo:hi])
        f = -0.5 * m.reshape(16, -1)[::5]  # the diagonal M_ii
        m *= g
    return f, m


# 2x2 minors of a pair of rows are taken over the column pairs
# (0,1) (0,2) (0,3) (1,2) (1,3) (2,3); pair t and pair 5 - t are complements
_COLUMN_PAIRS = tuple(itertools.combinations(range(4), 2))
_LAPLACE_SIGN = np.array([(-1.0) ** (1 + p + q) for p, q in _COLUMN_PAIRS])
# for column i replaced by b: the other columns l, the pairs complementary
# to {i, l}, and the signs their Laplace terms take in Cramer's numerator
_KEPT = [[l for l in range(4) if l != i] for i in range(4)]
_OPPOSITE = [[5 - _COLUMN_PAIRS.index(tuple(sorted((i, l)))) for l in kept]
             for i, kept in enumerate(_KEPT)]
_CRAMER_SIGN = [np.array([(1 if i < l else -1) * _LAPLACE_SIGN[5 - t]
                          for l, t in zip(kept, opposite)])
                for i, (kept, opposite) in enumerate(zip(_KEPT, _OPPOSITE))]


def _det_solve4(m: np.ndarray, b: np.ndarray):
    """det m and m^-1 b for a batch of 4x4 systems, in closed form.

    Laplace expansion along rows (0, 1) gives det m from the 2x2 minors of
    rows (0, 1) and of rows (2, 3).  Cramer's numerator for x_i replaces
    column i by b, which changes only the minors that hold column i.
    The batch runs along the last axis: m is (4, 4, N), b is (4, N).
    Returns (det, x) with shapes (N,), (4, N); x is non-finite in columns
    where det is 0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        upper, lower = m[0::2], m[1::2]  # rows (0, 2) and rows (1, 3)
        minors = np.empty((2, 6) + b.shape[1:])
        for t, (p, q) in enumerate(_COLUMN_PAIRS):
            np.multiply(upper[:, p], lower[:, q], out=minors[:, t])
            minors[:, t] -= upper[:, q] * lower[:, p]
        det = _LAPLACE_SIGN @ (minors[0] * minors[1, ::-1])
        # the minors of the same rows with b in place of column l
        with_b = b[0::2, None] * lower
        with_b -= b[1::2, None] * upper
        x = np.empty_like(b)
        for i in range(4):
            np.einsum("hln,hln,l->n", minors[::-1][:, _OPPOSITE[i]],
                      with_b[:, _KEPT[i]], _CRAMER_SIGN[i], out=x[i])
        x /= det
    return det, x


def _polish(mu: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Three more Newton steps on converged columns: quadratic convergence
    makes them enough for the exact-rational recovery.  The steps stop as
    soon as one column cannot take one."""
    for _ in range(3):
        f, jac = _residual(mu, a)
        det, step = _det_solve4(jac, -f)
        if not (np.isfinite(jac).all() and (np.abs(det) > 1e-14).all()):
            break
        mu = mu + step
    return mu


def _default_seed_grid():
    return np.array(list(itertools.product(SEED_GRID_1D, repeat=4)))


def _newton_search(x, orderings, seeds, tol):
    """Newton on mu for x taken in each of the given orderings, in one loop.

    Every ordering starts from the whole seed grid, and its columns stay
    together.  It leaves the loop with its hitting columns at the first
    iteration where any of them hits.  Returns (outcomes, alive): per
    ordering a witness carrying it or the failure reason, and the number of
    columns alive at each iteration.  The preconditions are the caller's.
    """
    if seeds is None:
        seeds = _default_seed_grid()
    seeds = np.array(seeds, dtype=float)
    scale = max(1.0, max(abs(float(e)) for xi in x for e in xi.entries())) ** 2
    a = _pairwise_dets(x)
    a = np.stack([a[np.ix_(perm, perm)] for perm in orderings])
    mu = np.tile(seeds.T, len(orderings))
    live = list(range(len(orderings)))  # orderings still in the loop
    sizes = np.full(len(orderings), len(seeds))
    converged = [np.zeros((4, 0))] * len(orderings)
    alive = []
    for _ in range(NEWTON_ITERS):
        if mu.shape[1] == 0:
            break
        alive.append(mu.shape[1])
        f, jac = _residual(mu, a[live], sizes)
        owner = np.repeat(np.arange(len(live)), sizes)
        # a non-finite f_i makes jac_ii non-finite
        good = np.isfinite(jac).all(axis=(0, 1))
        hit = good & (np.abs(f).max(axis=0) <= tol * scale) & \
            ((mu > 1.0 + tol) & (mu < MU_CAP)).all(axis=0)
        done = np.bincount(owner[hit], minlength=len(live)) > 0
        for j in np.flatnonzero(done):
            converged[live[j]] = _polish(mu[:, hit & (owner == j)],
                                         a[live[j]])
        det, step = _det_solve4(jac, -f)
        good &= np.abs(det) > 1e-14
        with np.errstate(invalid="ignore", over="ignore"):
            delta = np.where(good, step, 0.0)
            # damp large steps to keep mu in range
            norm = np.abs(delta).max(axis=0)
            mu = mu + delta * np.minimum(1.0, 2.0 / np.maximum(norm, 1e-30))
        # a non-finite mu fails both comparisons
        keep = good & ~done[owner] & ((mu > 1.0) & (mu < MU_CAP)).all(axis=0)
        mu = mu[:, keep]
        sizes = np.bincount(owner[keep], minlength=len(live))
        live = [k for k, n in zip(live, sizes) if n]
        sizes = sizes[sizes > 0]
    outcomes = []
    for perm, hits in zip(orderings, converged):
        if hits.shape[1] == 0:
            outcomes.append("no converged seed")
            continue
        # deterministic pick: smallest mu vector lexicographically after
        # rounding
        best = hits[:, np.lexsort(np.round(hits, 8)[::-1])[0]]
        w = _build_witness([x[i] for i in perm], best, tol)
        outcomes.append("converged seed failed validation" if w is None
                        else T4Witness(tuple(perm), w.p, w.c, w.mu))
    return outcomes, tuple(alive)


def _pair_faults(x) -> dict:
    """The precondition each pair (i, j), in either order, of x fails."""
    faults = {}
    for i, j in itertools.combinations(range(4), 2):
        if x[i] == x[j]:
            faults[i, j] = faults[j, i] = "points not pairwise distinct"
        elif rank_one_connected(x[i], x[j], DEFAULT_TOL):
            faults[i, j] = faults[j, i] = "rank-one connection present"
    return faults


def _precondition(faults: dict, perm) -> str | None:
    """The failure reason of x taken in the order perm: that of its first
    faulty pair, pairs taken in the order of their positions in perm."""
    return next((faults[pair] for pair in itertools.combinations(perm, 2)
                 if pair in faults), None)


def solve_t4_ordering(x, seeds=None, tol: float = 1e-9):
    """Search for a witness for one fixed ordering of four matrices: the
    one-ordering case of the Newton loop detect_t4 runs.

    Returns (witness, reason); witness is None when no seed converges or a
    precondition fails.
    """
    reason = _precondition(_pair_faults(x), range(4))
    if reason:
        return None, reason
    (found,), _ = _newton_search(x, [(0, 1, 2, 3)], seeds, tol)
    return (None, found) if isinstance(found, str) else (found, "ok")


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
    # seeds alive, over all classes, at each iteration of the shared loop
    newton_alive: tuple[int, ...] = field(default=(), compare=False)

    def found(self) -> bool:
        return bool(self.witnesses)


def detect_t4(x, tol: float = 1e-9, seeds=None) -> Detection:
    """Witnesses for all 24 orderings, from one Newton loop over the six
    cyclic classes.

    A T4 is a cycle, so the four rotations of an ordering describe one
    scaffold read from different corners.  Only the class representatives
    (the rotations that start with 0) are searched, together.  Rotation r of
    a witness starts at the corner Q_r, with C and mu rotated by r; each such
    derived witness is re-checked with witness_certified, and one that fails
    gets a search of its own.  A failure reason holds for the whole class:
    the preconditions are checked once, on the pairs of x, and rotating the
    ordering rotates the Newton iteration in mu, which maps the default seed
    grid onto itself.  Witnesses come in itertools.permutations order;
    rotations of one scaffold are all reported.
    """
    faults = _pair_faults(x)
    reps = [(0,) + tail for tail in itertools.permutations(range(1, 4))]
    found = {rep: _precondition(faults, rep) for rep in reps}
    searched = [rep for rep in reps if found[rep] is None]
    alive = ()
    if searched:
        outcomes, alive = _newton_search(x, searched, seeds, tol)
        found.update(zip(searched, outcomes))
    outcome = {}
    for rep, w in found.items():
        if isinstance(w, str):
            outcome.update((_rotate(rep, r), w) for r in range(4))
            continue
        outcome[rep] = w
        corners = w.corners()
        for r in range(1, 4):
            turned = T4Witness(_rotate(rep, r), corners[r], _rotate(w.c, r),
                               _rotate(w.mu, r))
            outcome[turned.ordering] = (
                turned if witness_certified(x, turned, tol)
                else _newton_search(x, [turned.ordering], seeds, tol)[0][0])
    perms = list(itertools.permutations(range(4)))
    return Detection(
        tuple(outcome[p] for p in perms if not isinstance(outcome[p], str)),
        {p: outcome[p] for p in perms if isinstance(outcome[p], str)},
        alive)


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
