"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload builds a list of rounds from its seed.  A round holds one
operation of every kind the workload mixes, interleaved, so any prefix of a
run has close to the stated composition.  The closed loop in run.py issues
the operations of a round one after another and repeats the rounds.

Operations call the library through module attributes (``t4.detect_t4``,
``hulls.l2_hull``, ...) so that a traced run sees the wrapped functions.
Checks use the references captured below, at import time, so they are never
traced and never timed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from fractions import Fraction as F

import numpy as np

from rohull import cli, constructions, hulls, pchull, serialize, t4
from rohull.core import Mat2

_check_t4_witness = t4.check_t4_witness
_to_rows = pchull.to_rows

# Newton seeds for t4-search: every other value of the library's default
# 10-value grid, 4^4 = 256 seeds.  The default 10^4-seed grid takes 13-24 s
# per detect_t4 call on two cores, which leaves fewer than ten operations in
# a run and no tail percentile.
T4_SEED_GRID = np.array(
    list(itertools.product(t4.SEED_GRID_1D[1:9:2], repeat=4)))

CLASSIC = (Mat2.diag(F(-1), F(3)), Mat2.diag(F(3), F(1)),
           Mat2.diag(F(1), F(-3)), Mat2.diag(F(-3), F(-1)))
CLASSIC_MU = (F(2), F(2), F(2), F(2))


def _rand_mat(rng, lo, hi, den=1):
    return Mat2(*(F(rng.randint(lo, hi), den) for _ in range(4)))


def _invertible(rng):
    while True:
        m = _rand_mat(rng, -3, 3)
        if m.det() != 0:
            return m


def _mul(a: Mat2, b: Mat2) -> Mat2:
    return Mat2(a.a11 * b.a11 + a.a12 * b.a21, a.a11 * b.a12 + a.a12 * b.a22,
                a.a21 * b.a11 + a.a22 * b.a21, a.a21 * b.a12 + a.a22 * b.a22)


def _rank_one(rng) -> Mat2:
    u = (rng.randint(1, 4), rng.randint(-4, 4))
    v = (rng.randint(1, 4), rng.randint(-4, 4))
    return Mat2(F(u[0] * v[0]), F(u[0] * v[1]), F(u[1] * v[0]),
                F(u[1] * v[1]))


def _det4(a, b):
    return (a[0] - b[0]) * (a[3] - b[3]) - (a[1] - b[1]) * (a[2] - b[2])


def _greedy_det_nonneg(rng, size, lo, hi, strict=False):
    """Integer 4-tuples with det(p - q) >= 0 (> 0 when strict) pairwise."""
    while True:
        pts = []
        for _ in range(4000):
            p = tuple(rng.randint(lo, hi) for _ in range(4))
            if p in pts:
                continue
            if all((_det4(p, q) > 0) if strict else (_det4(p, q) >= 0)
                   for q in pts):
                pts.append(p)
                if len(pts) == size:
                    return pts


def det_nonneg_set(rng, family, size):
    """One exact det-nonnegative set from the three criterion-7 families."""
    if family == "rotation":
        pts = set()
        while len(pts) < size:
            pts.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        return [Mat2(F(a), F(b), F(-b), F(a)) for a, b in sorted(pts)]
    if family == "plane":
        g = (rng.randint(1, 3), rng.randint(-3, 3))
        base = tuple(rng.randint(-2, 2) for _ in range(4))
        coeffs = {(0, 0)}
        while len(coeffs) < size:
            coeffs.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        return [Mat2(F(base[0] + c * g[0]), F(base[1] + c * g[1]),
                     F(base[2] + d * g[0]), F(base[3] + d * g[1]))
                for c, d in sorted(coeffs)]
    # at least one rank-one pair, so that the set has a plane to query; sets
    # without one are the rotation family's case
    while True:
        pts = _greedy_det_nonneg(rng, size, -2, 2)
        if any(_det4(p, q) == 0 for p, q in itertools.combinations(pts, 2)):
            return [Mat2(*(F(e) for e in p)) for p in pts]


class Op:
    """One operation: a kind label and the inputs it runs on."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data


# --- t4-search -----------------------------------------------------------


class T4Search:
    """One operation is one detect_t4 call on a seeded quadruple."""

    name = "t4-search"
    # the two five-point images put the median operation inside one kind
    round_kinds = ("classic-image", "gated", "five-point-image", "gated",
                   "generic", "five-point-image")
    n_rounds = 24

    def __init__(self, rng, workdir):
        five = constructions.five_point_build(F(1, 2))
        sources = {"classic-image": (CLASSIC, CLASSIC_MU),
                   "five-point-image": (five.x, five.mu)}
        self.rounds = []
        for _ in range(self.n_rounds):
            rnd = []
            for kind in self.round_kinds:
                if kind in sources:
                    rnd.append(Op(kind, self._image(rng, *sources[kind])))
                elif kind == "gated":
                    rnd.append(Op(kind, self._gated(rng)))
                else:
                    rnd.append(Op(kind, self._generic(rng)))
            self.rounds.append(rnd)

    @staticmethod
    def _image(rng, src, mu):
        """X -> A X B + M with the points shuffled; the T4 and its mu carry
        over because det(A (X - Y) B) = det A det B det(X - Y)."""
        a, b = _invertible(rng), _invertible(rng)
        m = _rand_mat(rng, -5, 5, 2)
        sigma = list(range(4))
        rng.shuffle(sigma)
        return ([_mul(_mul(a, src[s]), b) + m for s in sigma], sigma, mu)

    @staticmethod
    def _gated(rng):
        while True:
            a = _rand_mat(rng, -9, 9)
            x = [a, a + _rank_one(rng), _rand_mat(rng, -9, 9),
                 _rand_mat(rng, -9, 9)]
            if len({m.entries() for m in x}) == 4:
                return x

    @staticmethod
    def _generic(rng):
        # det(X - Y) > 0 for every pair: no rank-one pair, and the
        # polyconvex hull is the set itself, so no T4 exists
        return [Mat2(*(F(e) for e in p))
                for p in _greedy_det_nonneg(rng, 4, -9, 9, strict=True)]

    def matrices(self):
        for rnd in self.rounds:
            for op in rnd:
                x = op.data[0] if op.kind.endswith("image") else op.data
                yield from x

    def run(self, op):
        x = op.data[0] if op.kind.endswith("image") else op.data
        return t4.detect_t4(x, seeds=T4_SEED_GRID)

    def check(self, op, det, counters):
        x = op.data[0] if op.kind.endswith("image") else op.data
        for w in det.witnesses:
            ordered = [x[i] for i in w.ordering]
            if not _check_t4_witness(ordered, w, 0).accepted:
                return f"witness for {w.ordering} fails the exact check"
        if op.kind.endswith("image"):
            _, sigma, mu = op.data
            for w in det.witnesses:
                src = tuple(sigma[i] for i in w.ordering)
                r = src[0]
                if (src == tuple((r + k) % 4 for k in range(4))
                        and tuple(w.mu) == tuple(mu[(r + k) % 4]
                                                 for k in range(4))):
                    return None
            return "T4 image not found with a rotation of the source mu"
        if det.found():
            return f"{op.kind} quadruple reported as a T4"
        reasons = det.failures.values()
        if op.kind == "gated" and "rank-one connection present" not in reasons:
            return "gated quadruple lacks the rank-one failure reason"
        return None


# --- hull-queries ----------------------------------------------------------


class HullQueries:
    """One operation is one det-nonnegative set of 3-6 points: build l2_hull
    and pc_hull once, then read membership, distances and Caratheodory
    decompositions against them."""

    name = "hull-queries"
    # every round holds each family at each size once: a set's cost grows
    # steeply with its size, so drawing sizes at random would make the mix,
    # and with it the figures, differ from run to run
    round_kinds = tuple(itertools.product((3, 4, 5, 6),
                                          ("rotation", "plane", "random")))
    n_rounds = 64
    grid = 5  # in-plane grid of grid x grid query points per plane

    def __init__(self, rng, workdir):
        self.rounds = [[Op(family, det_nonneg_set(rng, family, size))
                        for size, family in self.round_kinds]
                       for _ in range(self.n_rounds)]

    def matrices(self):
        for rnd in self.rounds:
            for op in rnd:
                yield from op.data

    def run(self, op):
        k = op.data
        l2 = hulls.l2_hull(k)
        hull = pchull.pc_hull(k)
        queries = list(k)
        half = F(1, 2)
        for a, b in itertools.combinations(k, 2):
            queries.append((a + b).scale(half))
        inside = []  # (plane hull, query index) pairs inside that polygon
        last = self.grid - 1
        for ph in hull.planes:
            us = [c[0] for c in ph.vertices]
            vs = [c[1] for c in ph.vertices]
            u0, du = min(us), max(us) - min(us)
            v0, dv = min(vs), max(vs) - min(vs)
            for i in range(self.grid):
                for j in range(self.grid):
                    q = (u0 + du * F(i, last), v0 + dv * F(j, last))
                    if pchull.polygon_contains(ph.vertices, q):
                        inside.append((ph, len(queries)))
                    queries.append(Mat2.from_rows(ph.plane.matrix_at(q)))
        member = [hull.membership(g) for g in queries]
        dist = [hulls.point_to_set_dist_sq(g, l2) for g in queries]
        decomps = [(queries[qi], pchull.caratheodory_decompose(
                        ph.plane, [k[i] for i in ph.indices], queries[qi]))
                   for ph, qi in inside if member[qi]]
        return member, dist, decomps

    def check(self, op, result, counters):
        member, dist, decomps = result
        counters["hulls.queries"] += len(member)
        counters["hulls.l2_pc_disagree"] += sum(
            1 for m, d in zip(member, dist) if m != (d == 0))
        if not all(member[:len(op.data)]):
            return "an input point is not a member of its pc_hull"
        for target, res in decomps:
            if (any(w < 0 for w in res.weights) or sum(res.weights) != 1
                    or res.reconstruct() != _to_rows(target)):
                return "caratheodory_decompose does not reconstruct its target"
        return None


# --- cli-reports -----------------------------------------------------------


def _matrices_json(mats):
    return [serialize.matrix_to_json(m) for m in mats]


class CliReports:
    """One operation is one in-process rohull.cli.main call with --csv --svg
    into a directory of its own.  Arguments are drawn from the seed, from
    ranges narrow enough that a round costs about the same whatever the seed,
    and sized so that no subcommand takes most of a round."""

    name = "cli-reports"
    round_kinds = ("staircase", "usc-probe", "tri-spiral-exact",
                   "tri-spiral-float", "sym-spiral", "five-point", "pc-hull",
                   "hausdorff")
    n_rounds = 8  # rounds repeat, so every argument list runs several times

    def __init__(self, rng, workdir):
        self._matrices = []
        self.first_bytes = {}
        self.rounds = []
        for r in range(self.n_rounds):
            rnd = []
            for kind in self.round_kinds:
                sub, argv = self._argv(rng, kind, r, os.path.join(
                    workdir, "in", f"{r}-{kind}"))
                out = os.path.join(workdir, "out", f"{r}-{kind}")
                rnd.append(Op(kind, (sub, ["--out", out, "--csv", "--svg",
                                           *argv],
                                     os.path.join(out, f"{sub}.json"))))
            self.rounds.append(rnd)

    def _write(self, path, obj):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(obj, f)
        return path

    def _argv(self, rng, kind, r, stem):
        if kind == "staircase":
            return kind, [kind, "--N", str(rng.randint(50, 60)),
                          "--n-max", str(rng.randint(380, 420))]
        if kind == "usc-probe":
            return kind, [kind, "--N", "10",
                          "--n-max", str(rng.randint(30, 34))]
        if kind == "tri-spiral-exact":
            return "tri-spiral", ["tri-spiral",
                                  "--steps", str(rng.randint(350, 450))]
        if kind == "tri-spiral-float":
            return "tri-spiral", ["--mode", "float", "tri-spiral",
                                  "--steps", str(rng.randint(2300, 2700))]
        if kind == "sym-spiral":
            # xi3 shrinks about 16-fold per cycle and underflows near 260
            # cycles, where the subcommand dies with ZeroDivisionError
            return kind, ["--mode", "float", kind,
                          "--xi3", rng.choice(["1e-3", "5e-4", "1e-4"]),
                          "--iters", str(rng.randint(140, 160))]
        if kind == "five-point":
            return kind, [kind, "--epsilon", rng.choice(["1/2", "1/3", "2/5"]),
                          "--rounds", str(rng.randint(400, 500))]
        if kind == "pc-hull":
            k = det_nonneg_set(rng, "plane" if r % 2 else "random", 10)
            self._matrices.extend(k)
            path = self._write(stem + "-k.json", _matrices_json(k))
            return kind, [kind, "--input", path]
        # hausdorff: an order-2 hull with segments against a translate of it
        k = det_nonneg_set(rng, "plane", 3)
        shift = _rand_mat(rng, -2, 2, 4)
        a = hulls.l2_hull(k)
        b = hulls.l2_hull([m + shift for m in k])
        self._matrices.extend(a.points + b.points)
        path_a = self._write(stem + "-a.json", serialize.laminate_to_json(a))
        path_b = self._write(stem + "-b.json", serialize.laminate_to_json(b))
        return kind, [kind, "--input-a", path_a, "--input-b", path_b]

    def matrices(self):
        return iter(self._matrices)

    def run(self, op):
        sub, argv, report = op.data
        with contextlib.suppress(FileNotFoundError):
            os.unlink(report)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, op, code, counters):
        sub, argv, report = op.data
        if code != 0:
            return f"{sub} exited {code}"
        with open(report, "rb") as f:
            blob = f.read()
        if not json.loads(blob)["certificates"]["passed"]:
            return f"{sub} reports a failed certificate"
        first = self.first_bytes.setdefault(report, blob)
        if blob != first:
            return f"{sub} report differs from its first run"
        return None


CLI_SUBCOMMANDS = {kind: kind.rsplit("-", 1)[0] if kind.startswith("tri")
                   else kind for kind in CliReports.round_kinds}
WORKLOADS = {w.name: w for w in (T4Search, HullQueries, CliReports)}
