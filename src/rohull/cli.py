"""Command-line entry point: reproducible batch runs with JSON/CSV/SVG output.

Each ``cmd_*`` returns ``(inputs, results, passed, files)``; ``main`` writes
the report and the files.  Exit codes: 0 when all certificates pass, 2 on a
certificate failure (any other ``GeometryError``), 1 on usage errors,
unreadable input and ``constructions.InputError``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import constructions, pchull, svgout, t4
from .core import GeometryError, Mat2
from .hulls import (
    directed_dist_sq,
    exact_set,
    point_to_set_dist_sq,
    separator_check,
)
from .scalar import EXACT, FLOAT, parse_scalar, scalar_sqrt, to_float
from .serialize import (
    SCHEMA,
    dump_canonical,
    laminate_from_json,
    laminate_to_json,
    matrix_from_json,
    matrix_to_json,
    scalar_to_json,
    write_atomic,
)


class UsageError(Exception):
    pass


def _csv(rows) -> str:
    lines = ["subspace,x,y,z"]
    for subspace, x, y, z in rows:
        lines.append(f"{subspace},{float(x)!r},{float(y)!r},{float(z)!r}")
    return "\n".join(lines) + "\n"


def _xyz(iterates):
    """The subspace coordinates (x, y, z) = (a11, a22, a12) of each iterate
    of a spiral."""
    return [(m.a11, m.a22, m.a12) for m in iterates]


def _require_mode(args, mode: str, why: str) -> None:
    if args.mode != mode:
        raise UsageError(f"{args.subcommand} requires --mode {mode} ({why})")


def _load_matrices(path: str, mode: str):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(f"invalid JSON in {path}: {e}")
    if not isinstance(data, list):
        found = {dict: "an object", str: "a string", bool: "a boolean",
                 type(None): "null"}.get(type(data), "a number")
        raise UsageError(f"{path} must hold a JSON list of 2x2 matrices, "
                         f"found {found}")
    try:
        return [matrix_from_json(m, mode) for m in data]
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad matrix data in {path}: {e}")


def cmd_staircase(args):
    _require_mode(args, EXACT, "its certificates are exact comparisons")
    cfg = constructions.StaircaseConfig(args.n_max, args.N)
    k0 = constructions.staircase_points(cfg)
    chain = constructions.staircase_iterate(cfg)
    p_n = constructions.staircase_perturbation(args.N)
    rho_sq = point_to_set_dist_sq(p_n, k0)
    xy = [(p.a11, p.a22) for p in chain]
    results = {
        "points": laminate_to_json(k0),
        "perturbation": [str(p_n.a11), str(p_n.a22)],
        "chain": [[str(x), str(y)] for x, y in xy],
        "final_point": [str(c) for c in xy[-1]],
        "perturbation_distance_sq": scalar_to_json(rho_sq),
        "combination_steps": len(chain) - 1,
    }
    passed = (chain[-1] == Mat2.diag(0, 1)
              and rho_sq <= Fraction(1, 4 ** args.N))
    files = {}
    if args.svg:
        files["staircase.svg"] = svgout.staircase_diagram(
            [(m.a11, m.a22) for m in k0.points], xy)
    if args.csv:
        files["staircase.csv"] = _csv(("diag", x, y, 0) for x, y in xy)
    return {"n_max": args.n_max, "N": args.N}, results, passed, files


def cmd_tri_spiral(args):
    if args.mode == EXACT:
        cfg = constructions.TriSpiralConfig.standard_square()
    else:
        cfg = constructions.TriSpiralConfig(
            -1.0, 1.0, 1.0, -1.0, 1.0, (2.0, 2.0, 2.0, 2.0))
    pts = _xyz(constructions.tri_spiral(cfg, args.steps))
    anchors = cfg.anchors()
    witness = separator_check(anchors)
    lams = cfg.lambdas()
    results = {
        "lambda": [scalar_to_json(l) for l in lams],
        "iterates": [[scalar_to_json(c) for c in p] for p in pts],
        "separator_dets": [scalar_to_json(d) for d in witness.pairwise_dets],
    }
    passed = all(0 < l < 1 for l in lams)
    files = {}
    if args.svg:
        files["tri-spiral.svg"] = svgout.spiral_diagram(
            [(m.a11, m.a22) for m in cfg.corners()],
            [(m.a11, m.a22) for m in anchors], [p[:2] for p in pts])
    if args.csv:
        files["tri-spiral.csv"] = _csv(("tri", *p) for p in pts)
    return {"steps": args.steps, "mode": args.mode}, results, passed, files


def cmd_sym_spiral(args):
    _require_mode(args, FLOAT, "square roots appear in the start offsets")
    cfg = constructions.SymSpiralConfig.standard_square(args.xi3)
    result = constructions.sym_spiral(cfg, args.iters)
    pts = _xyz(result.iterates)
    results = {
        "xi": [scalar_to_json(v) for v in cfg.offsets()],
        "iterates": [list(p) for p in pts],
        "cycles": [{
            "t": list(c.t),
            "det_residual_rel": list(c.det_residual_rel),
            "eta": list(c.eta),
            "ratio": c.ratio,
            "branch_error": c.branch_error,
        } for c in result.cycles],
        "lambda_product": result.lambda_product,
        "contraction_bound": result.contraction_bound,
    }
    passed = all(c.ratio < result.contraction_bound for c in result.cycles)
    files = {}
    if args.csv:
        files["sym-spiral.csv"] = _csv(("sym", *p) for p in pts)
    return {"xi3": args.xi3, "iters": args.iters}, results, passed, files


def cmd_five_point(args):
    _require_mode(args, EXACT, "its certificates are exact comparisons")
    try:
        eps = parse_scalar(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise UsageError("--epsilon must be a rational number, "
                         f"got {args.epsilon!r}")
    cfg = constructions.five_point_build(eps)
    w = cfg.witness()
    lam = t4.laminate_unroll(cfg.x, w, 0, args.rounds)
    gap_sq = constructions.five_point_gap_sq(cfg)
    results = {
        "mu": [scalar_to_json(m) for m in cfg.mu],
        "X": [matrix_to_json(m) for m in cfg.x],
        "P": [matrix_to_json(m) for m in cfg.p],
        "C": [matrix_to_json(m) for m in cfg.c],
        "residuals": [scalar_to_json(r) for r in
                      t4.check_t4_witness(cfg.x, w, 0).eq_residual_sq],
        "gap_sq": scalar_to_json(gap_sq),
        "gap": scalar_to_json(scalar_sqrt(gap_sq)),
        "laminate": {
            "atoms": [{"matrix": matrix_to_json(m),
                       "weight": scalar_to_json(wt)}
                      for m, wt in lam.atoms],
            "barycenter": matrix_to_json(lam.barycenter),
            "off_support_mass": scalar_to_json(lam.off_support_mass),
        },
    }
    passed = gap_sq > 0 and lam.barycenter == cfg.p[0]
    return ({"epsilon": str(cfg.epsilon), "rounds": args.rounds}, results,
            passed, {})


def cmd_t4_detect(args):
    mats = _load_matrices(args.input, args.mode)
    if len(mats) != 4:
        raise UsageError("t4-detect expects exactly 4 matrices")
    det = t4.detect_t4(mats, tol=args.tol)
    results = {
        "witnesses": [{
            "ordering": list(w.ordering),
            "cyclic_class": list(t4.cyclic_class(w.ordering)),
            "P": matrix_to_json(w.p),
            "C": [matrix_to_json(c) for c in w.c],
            "mu": [scalar_to_json(m) for m in w.mu],
        } for w in det.witnesses],
        "failures": {"-".join(map(str, k)): v
                     for k, v in sorted(det.failures.items())},
    }
    passed = all(t4.witness_certified(mats, w, args.tol)
                 for w in det.witnesses)
    return {"input": os.path.basename(args.input)}, results, passed, {}


def _pc_hull_certified(mats, hull, tol) -> bool:
    """Every input is a member of the hull, and every plane holds the points
    it indexes; ``tol`` applies to float planes only."""
    return (all(hull.membership(m, tol) for m in mats)
            and all(ph.plane.contains(hull.points[i], tol)
                    for ph in hull.planes for i in ph.indices))


def cmd_pc_hull(args):
    mats = _load_matrices(args.input, args.mode)
    inputs = {"input": os.path.basename(args.input)}
    try:
        hull = pchull.pc_hull(mats, tol=args.tol)
    except GeometryError as e:
        return inputs, {"error": str(e)}, False, {}
    results = {
        "planes": [{
            "kind": ph.plane.kind,
            "basepoint": [[scalar_to_json(e) for e in row]
                          for row in ph.plane.basepoint],
            "generator": [scalar_to_json(g) for g in ph.plane.generator],
            "indices": list(ph.indices),
            "polygon_vertices": [[scalar_to_json(c) for c in v]
                                 for v in ph.vertices],
        } for ph in hull.planes],
        "singletons": [matrix_to_json(hull.points[i])
                       for i in hull.singleton_indices],
    }
    return inputs, results, _pc_hull_certified(mats, hull, args.tol), {}


def cmd_hausdorff(args):
    def load_set(path):
        try:
            with open(path) as f:
                s = laminate_from_json(json.load(f), args.mode)
        except (OSError, json.JSONDecodeError, KeyError, ValueError,
                TypeError) as e:
            raise UsageError(f"cannot load laminate set from {path}: {e}")
        if s.is_empty():
            raise UsageError(f"{path} holds an empty laminate set")
        return s if args.mode == EXACT else exact_set(s)
    s1 = load_set(args.input_a)
    s2 = load_set(args.input_b)
    a_to_b, b_to_a = directed_dist_sq(s1, s2), directed_dist_sq(s2, s1)
    hsq = max(a_to_b, b_to_a)  # = hausdorff_sq(s1, s2)
    try:
        root = scalar_sqrt(hsq)
    except OverflowError:
        root = math.inf
    results = {"hausdorff_sq": hsq, "hausdorff": root,
               "directed_a_to_b_sq": a_to_b, "directed_b_to_a_sq": b_to_a}
    if args.mode == FLOAT:
        results = {k: to_float(v) for k, v in results.items()}
    # a number written as a float is finite, and 0 or normal, and 0 only
    # when its exact value is (the root's is 0 exactly when hsq is): a
    # subnormal float has lost precision
    if any(type(v) is float and not (math.isfinite(v) and (
            v >= sys.float_info.min or v == 0 == exact))
           for v, exact in zip(results.values(), (hsq, hsq, a_to_b, b_to_a))):
        raise UsageError("the Hausdorff distance is not a finite float "
                         "or is below the float range")
    return ({"input_a": os.path.basename(args.input_a),
             "input_b": os.path.basename(args.input_b)},
            {k: scalar_to_json(v) for k, v in results.items()}, True, {})


def cmd_usc_probe(args):
    """Quantitative jump of the hull map: tiny perturbation, order-one hull move.

    The chain from P_n is the chain from P_N without its first 2(N - n)
    points, so one staircase and one chain serve every n."""
    _require_mode(args, EXACT, "its certificates are exact comparisons")
    cfg = constructions.StaircaseConfig(args.n_max, args.N)
    k0 = constructions.staircase_points(cfg)
    chain = constructions.staircase_iterate(cfg)
    dist_sq = [point_to_set_dist_sq(p, k0) for p in chain]
    sweep = []
    for n in range(1, args.N + 1):
        start = 2 * (args.N - n)
        if chain[start] != constructions.staircase_perturbation(n):
            raise constructions.ConstructionError(
                f"the chain from P_{args.N} misses P_{n}")
        rho_sq = dist_sq[start]
        hull_dist_sq = max(dist_sq[start:])
        ok = (rho_sq <= Fraction(1, 4 ** n)
              and hull_dist_sq >= Fraction(1, 4))
        sweep.append({
            "N": n,
            "perturbation_distance_sq": scalar_to_json(rho_sq),
            "hull_distance_sq": scalar_to_json(hull_dist_sq),
            "jump_certified": ok,
        })
    return ({"N": args.N, "n_max": args.n_max}, {"sweep": sweep},
            all(s["jump_certified"] for s in sweep), {})


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _finite_float(lo: float, inclusive: bool):
    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value)
                and (value >= lo if inclusive else value > lo)):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>=' if inclusive else '>'} {lo}")
        return value
    parse.__name__ = "float"  # argparse names the type in its error message
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` returns a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="rohull",
        description="Rank-one geometric constructions for 2x2 matrices")
    parser.add_argument("--mode", choices=[EXACT, FLOAT], default=EXACT)
    parser.add_argument("--tol", type=_finite_float(0, True), default=1e-9)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--csv", action="store_true")
    parser.add_argument("--svg", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("staircase")
    p.add_argument("--N", type=_int_at_least(1), default=10)
    p.add_argument("--n-max", type=_int_at_least(1), default=30)
    p.set_defaults(func=cmd_staircase)

    p = sub.add_parser("tri-spiral")
    p.add_argument("--steps", type=_int_at_least(0), default=16)
    p.set_defaults(func=cmd_tri_spiral)

    p = sub.add_parser("sym-spiral")
    p.add_argument("--xi3", type=_finite_float(0, False), default=1e-3)
    p.add_argument("--iters", type=_int_at_least(0), default=12)
    p.set_defaults(func=cmd_sym_spiral)

    p = sub.add_parser("five-point")
    p.add_argument("--epsilon", default="1/2")
    p.add_argument("--rounds", type=_int_at_least(0), default=10)
    p.set_defaults(func=cmd_five_point)

    p = sub.add_parser("t4-detect")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_t4_detect)

    p = sub.add_parser("pc-hull")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_pc_hull)

    p = sub.add_parser("hausdorff")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("usc-probe")
    p.add_argument("--N", type=_int_at_least(1), default=10)
    p.add_argument("--n-max", type=_int_at_least(1), default=30)
    p.set_defaults(func=cmd_usc_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        inputs, results, passed, files = args.func(args)
    except (UsageError, constructions.InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GeometryError as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return 2
    sub = args.subcommand
    out_path = os.path.join(args.out, f"{sub}.json")
    write_atomic(out_path, dump_canonical({
        "schema": SCHEMA, "subcommand": sub, "inputs": inputs,
        "results": results, "certificates": {"passed": passed}}))
    for name, text in files.items():
        write_atomic(os.path.join(args.out, name), text)
    verdict = "certificates passed" if passed else "CERTIFICATE FAILURE"
    print(f"{sub}: {verdict} -> {out_path}")
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
