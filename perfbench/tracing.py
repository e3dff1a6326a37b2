"""Spans and counters recorded around rohull's public functions.

A traced run replaces each listed function with a wrapper at the module
that defines it and at every ``from ... import`` binding of it in other
rohull modules, so calls made inside the library are seen as well as calls
made by the benchmark.  Each span records name, parent, start, end and an
optional tag taken from the result.  Spans stay in memory until the run ends.
``Mat2`` construction and ``rank_one_connected`` are counted, not timed.
While the tracer is suspended (around the benchmark's own checks) the
wrappers only call through and record nothing.
"""
from __future__ import annotations

import collections
import contextlib
import sys
from time import perf_counter

from rohull import core

# (module, function, tag taken from the result or None)
SPANNED = (
    ("t4", "detect_t4", None),
    ("t4", "solve_t4_ordering", lambda r: r[1]),
    ("t4", "check_t4_witness", None),
    ("t4", "laminate_unroll", None),
    ("hulls", "l2_hull", lambda r: len(r.segments)),
    ("hulls", "lamination_step", None),
    ("hulls", "point_to_set_dist_sq", None),
    ("hulls", "directed_dist_sq", None),
    ("hulls", "hausdorff_sq", None),
    ("pchull", "pc_hull", lambda r: len(r.planes)),
    ("pchull", "plane_pair", None),
    ("pchull", "caratheodory_decompose", None),
    ("pchull", "polygon_contains", None),
    ("constructions", "staircase_points", None),
    ("constructions", "staircase_iterate", None),
    ("constructions", "tri_spiral", None),
    ("constructions", "sym_spiral", None),
    ("constructions", "five_point_build", None),
    ("constructions", "five_point_gap_sq", None),
    ("serialize", "dump_canonical", lambda r: len(r.encode())),
    ("serialize", "write_atomic", None),
    ("svgout", "staircase_diagram", None),
    ("svgout", "spiral_diagram", None),
)
COUNTED = (("core", "rank_one_connected"),)
# (module, class, method): methods replaced on the class itself
SPANNED_METHODS = (
    ("pchull", "HullDescription", "membership"),
    ("pchull", "RankOnePlane", "matrix_at"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, tag]
        self.counts = collections.Counter()
        self.suspended = False
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def suspend(self):
        """Record nothing inside this block."""
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False

    def span(self, name, fn, tag=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if tag is not None:
                rec[4] = tag(result)
            return result
        return traced

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.suspended:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, new):
        for modname, mod in list(sys.modules.items()):
            if modname != "rohull" and not modname.startswith("rohull."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def install(self):
        for modname, fname, tag in SPANNED:
            original = getattr(sys.modules[f"rohull.{modname}"], fname)
            self._rebind(original, self.span(f"{modname}.{fname}", original,
                                             tag))
        for modname, fname in COUNTED:
            original = getattr(sys.modules[f"rohull.{modname}"], fname)
            self._rebind(original, self.counted(f"{modname}.{fname}",
                                                original))
        for modname, cls_name, meth in SPANNED_METHODS:
            cls = getattr(sys.modules[f"rohull.{modname}"], cls_name)
            self._replace(cls, meth, self.span(f"{modname}.{meth}",
                                               getattr(cls, meth)))
        post_init = core.Mat2.__post_init__

        def counted_post_init(m):
            if not self.suspended:
                self.counts["core.Mat2"] += 1
            post_init(m)
        self._replace(core.Mat2, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self):
        """Spans as dicts, for the spans file."""
        return [{"name": n, "parent": p, "start": s, "end": e, "tag": t}
                for n, p, s, e, t in self.spans]


PER_OP_UNITS = {"s": "s/op", "count": "1/op", "bytes": "bytes/op"}


def layer_metrics(tracer, cli_kinds, ops):
    """Per-layer metrics from the spans and counters of one traced phase.

    ``cli_kinds`` maps a cli-reports operation kind to its subcommand.
    Totals and counts are divided by ``ops``, the operations of the phase,
    so that they measure the work of an operation and not the length of
    the phase; means and ratios are reported as they are.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, parent, start, end, tag in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = collections.Counter()
    total = collections.defaultdict(float)
    self_s = collections.defaultdict(float)
    tags = collections.defaultdict(list)
    for i, (name, parent, start, end, tag) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        if tag is not None:
            tags[name].append((tag, end - start))
        if name.startswith("op.") and name[3:] in cli_kinds:
            total["cli." + cli_kinds[name[3:]]] += end - start
    hausdorff_s = total["hulls.hausdorff_sq"] + sum(
        end - start for name, parent, start, end, _ in spans
        if name == "hulls.directed_dist_sq"
        and (parent < 0 or spans[parent][0] != "hulls.hausdorff_sq"))

    orderings = tags["t4.solve_t4_ordering"]
    by_reason = collections.defaultdict(list)
    for reason, dur in orderings:
        by_reason[reason].append(dur)
    gated = sum(len(v) for r, v in by_reason.items()
                if r in ("rank-one connection present",
                         "points not pairwise distinct"))
    found = by_reason.get("ok", [])
    empty = by_reason.get("no converged seed", [])
    rejected = by_reason.get("converged seed failed validation", [])
    ran_newton = len(found) + len(empty) + len(rejected)

    def mean_ms(durations):
        return 1000.0 * sum(durations) / len(durations) if durations else 0.0

    m = {
        "t4.detect_calls": (calls["t4.detect_t4"], "count"),
        "t4.detect_s": (total["t4.detect_t4"], "s"),
        "t4.ordering_calls": (calls["t4.solve_t4_ordering"], "count"),
        "t4.ordering_self_s": (self_s["t4.solve_t4_ordering"], "s"),
        "t4.orderings_gated": (gated, "count"),
        "t4.orderings_found": (len(found), "count"),
        "t4.orderings_empty": (len(empty), "count"),
        "t4.orderings_rejected": (len(rejected), "count"),
        "t4.found_ordering_ms": (mean_ms(found), "ms"),
        "t4.empty_ordering_ms": (mean_ms(empty), "ms"),
        "t4.witness_yield": (len(found) / ran_newton if ran_newton else 0.0,
                             "ratio"),
        "t4.check_witness_calls": (calls["t4.check_t4_witness"], "count"),
        "t4.check_witness_s": (total["t4.check_t4_witness"], "s"),
        "t4.unroll_s": (total["t4.laminate_unroll"], "s"),
        "core.mat2_constructed": (tracer.counts["core.Mat2"], "count"),
        "core.rank_one_tests": (tracer.counts["core.rank_one_connected"],
                                "count"),
        "hulls.l2_hull_s": (total["hulls.l2_hull"], "s"),
        "hulls.lamination_step_calls": (calls["hulls.lamination_step"],
                                        "count"),
        "hulls.lamination_step_s": (total["hulls.lamination_step"], "s"),
        "hulls.segments_out": (sum(t for t, _ in tags["hulls.l2_hull"]),
                               "count"),
        "hulls.point_dist_calls": (calls["hulls.point_to_set_dist_sq"],
                                   "count"),
        "hulls.point_dist_s": (total["hulls.point_to_set_dist_sq"], "s"),
        "hulls.directed_calls": (calls["hulls.directed_dist_sq"], "count"),
        "hulls.hausdorff_s": (hausdorff_s, "s"),
        "pchull.pc_hull_calls": (calls["pchull.pc_hull"], "count"),
        "pchull.pc_hull_s": (total["pchull.pc_hull"], "s"),
        "pchull.planes_out": (sum(t for t, _ in tags["pchull.pc_hull"]),
                              "count"),
        "pchull.plane_pair_calls": (calls["pchull.plane_pair"], "count"),
        "pchull.membership_calls": (calls["pchull.membership"], "count"),
        "pchull.membership_s": (total["pchull.membership"], "s"),
        "pchull.caratheodory_calls": (calls["pchull.caratheodory_decompose"],
                                      "count"),
        "pchull.caratheodory_s": (total["pchull.caratheodory_decompose"],
                                  "s"),
        "pchull.query_grid_s": (total["pchull.polygon_contains"]
                                + total["pchull.matrix_at"], "s"),
        "constructions.staircase_s": (
            total["constructions.staircase_points"]
            + total["constructions.staircase_iterate"], "s"),
        "constructions.tri_spiral_s": (total["constructions.tri_spiral"], "s"),
        "constructions.sym_spiral_s": (total["constructions.sym_spiral"], "s"),
        "constructions.five_point_s": (
            total["constructions.five_point_build"]
            + total["constructions.five_point_gap_sq"], "s"),
    }
    for sub in sorted(set(cli_kinds.values())):
        m[f"cli.{sub}_s"] = (total["cli." + sub], "s")
    m.update({
        "serialize.dump_s": (total["serialize.dump_canonical"], "s"),
        "serialize.write_s": (total["serialize.write_atomic"], "s"),
        "serialize.report_bytes": (
            sum(t for t, _ in tags["serialize.dump_canonical"]), "bytes"),
        "svgout.svg_s": (total["svgout.staircase_diagram"]
                         + total["svgout.spiral_diagram"], "s"),
        "trace.spans": (len(spans), "count"),
    })
    return {name: (value / ops, PER_OP_UNITS[unit])
            if unit in PER_OP_UNITS else (value, unit)
            for name, (value, unit) in m.items()}
