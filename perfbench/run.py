"""Closed-loop benchmark of the rohull library.

    python3 perfbench/run.py --workload t4-search --seed 1 --seconds 35 --trace 0

One caller issues the next operation only after the previous one returns.
The inputs come from --seed; each operation's result is checked outside the
timed region.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 the run is split into an
untraced and a traced half and the JSON carries the per-layer metrics.
``--workload all`` runs the three workloads one after another.  Results and
spans are also written to .perfbench-out/ at the root of the checkout.
See perfbench/NOTES.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("t4-search", "hull-queries", "cli-reports")
SETUP_PROBES = 15
CALIBRATION_TERMS = 100  # about 0.25 ms of Fraction additions
CALIBRATION_REPEATS = 5
CALIBRATION_GAP = 0.05  # at least one calibration per 50 ms of operations
CALIBRATION_WINDOW = 15  # operations on each side whose calibrations count
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
NPROC = len(os.sched_getaffinity(0))


def cap_threads():
    """Cap the BLAS and OpenMP pools at nproc; numpy is not imported yet."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            value = min(int(os.environ.get(var, NPROC)), NPROC)
        except ValueError:
            value = NPROC
        os.environ[var] = str(max(value, 1))


def import_library():
    if not (SRC / "rohull" / "__init__.py").is_file():
        raise ImportError(f"no rohull sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rohull
    if Path(rohull.__file__).resolve().parent != SRC / "rohull":
        raise ImportError(f"rohull imported from {rohull.__file__}, "
                          f"not from {SRC}")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy as np
    lines = sum(p.read_bytes().count(b"\n")
                for p in sorted((SRC / "rohull").glob("*.py")))
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "omp_threads": int(os.environ["OMP_NUM_THREADS"]),
        "git_commit": git_commit(),
        "seed": seed,
        "src_rohull_lines": lines,
    }


def build(name, seed, workdir):
    import workloads
    return workloads.WORKLOADS[name](Random(f"{name}/{seed}"), workdir)


class SetupProbes:
    """Wall time from spawning a fresh interpreter to the point where it has
    imported the library and built this workload's inputs.

    The probes are spread over the run, between rounds, so that their median
    sees the machine as the operations do.  Each probe is corrected as an
    operation is (see Phase), by the calibrations of the operations run
    around it.
    """

    def __init__(self, name, seed, count=SETUP_PROBES):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed), "--setup-probe"]
        self.count = count
        self.times = []
        self.at = []  # operations of the phase done before each probe

    def probe(self, phase):
        self.at.append(len(phase.raw))
        t0 = perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                              text=True) as p:
            line = p.stdout.readline()
            elapsed = perf_counter() - t0
            p.stdout.read()
            code = p.wait()
        if line != "ready\n" or code != 0:
            raise RuntimeError(f"setup probe exited {code}")
        self.times.append(elapsed)

    def due(self, done, phase):
        """Run the probes due once `done` of the run has passed."""
        while len(self.times) < min(self.count, 1 + done * self.count):
            self.probe(phase)

    def corrected(self, phase):
        return [t * phase.fastest / phase.local_speed(i)
                for t, i in zip(self.times, self.at)]


def calibrate():
    """Time a fixed stdlib-only computation: the machine's speed right now."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        acc += Fraction(1, i % 89 + 1)
    return perf_counter() - t0


class Phase:
    """Latencies and outcomes of one closed-loop phase.

    Each operation is bracketed by two calibrations, whose mean is its
    speed.  Its corrected latency is its latency times (fastest calibration
    of the phase) / (median speed of the operations within
    CALIBRATION_WINDOW of it): the latency it would have had at the
    machine's least contended moment.  On a quiet machine the correction is
    close to 1.  On a shared host, other tenants slow everything by up to 2x
    in spells of seconds to minutes; the correction removes most of that, so
    the figures of two runs can be compared.  The median over neighbours
    is steadier than one operation's own calibrations, which last about
    2.5 ms in all.
    """

    def __init__(self):
        self.raw = []
        self.speed = []  # mean calibration time around each operation
        self.fastest = float("inf")  # fastest single calibration
        self.kinds = []
        self.failed = 0
        self.errors = collections.Counter()
        self.wall = 0.0

    def calibrate(self):
        """Mean of CALIBRATION_REPEATS short calibrations.  Short ones let
        the minimum find the brief spells without contention."""
        samples = [calibrate() for _ in range(CALIBRATION_REPEATS)]
        self.fastest = min(self.fastest, *samples)
        return sum(samples) / CALIBRATION_REPEATS

    def local_speed(self, i):
        """Median speed of the operations within CALIBRATION_WINDOW of
        operation i."""
        w = CALIBRATION_WINDOW
        return statistics.median(self.speed[max(0, i - w):i + w + 1])

    def latency(self):
        ref = self.fastest
        return [lat * ref / self.local_speed(i)
                for i, lat in enumerate(self.raw)]

    @staticmethod
    def summary(latency):
        """ops_per_s, p50 and tail (the highest percentile with TAIL_BEYOND
        samples beyond it) of a list of latencies, and that percentile."""
        ordered = sorted(latency)
        n = len(ordered)
        return {"ops_per_s": n / sum(ordered),
                "op_p50_ms": 1000.0 * statistics.median(ordered),
                "op_tail_ms": 1000.0 * ordered[n - TAIL_BEYOND - 1],
                "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n}


def closed_loop(wl, seconds, counters, run, between=None, check=None):
    """Repeat whole rounds until `seconds` have passed and the tail
    percentile has its samples.  `between(done, phase)` runs before each
    round, with the share of the run done; its time is not counted.
    `check` defaults to the workload's own check."""
    check = check or wl.check
    phase = Phase()
    start = perf_counter()
    paused = 0.0
    before = phase.calibrate()
    for rnd in itertools.cycle(wl.rounds):
        if between is not None:
            t0 = perf_counter()
            between((t0 - start - paused) / seconds, phase)
            paused += perf_counter() - t0
            before = phase.calibrate()
        round_start = perf_counter()
        for op in rnd:
            t0 = perf_counter()
            try:
                result = run(op)
            except Exception as e:  # a raising operation counts as failed
                elapsed = perf_counter() - t0
                error = f"raised {type(e).__name__}: {e}"
            else:
                elapsed = perf_counter() - t0
                error = None
            after = phase.calibrate()
            if error is None:
                error = check(op, result, counters)
            phase.raw.append(elapsed)
            phase.speed.append((before + after) / 2.0)
            phase.kinds.append(op.kind)
            before = after
            if error is not None:
                phase.failed += 1
                phase.errors[f"{op.kind}: {error}"] += 1
        round_s = perf_counter() - round_start
        for _ in range(int(round_s / CALIBRATION_GAP) - len(rnd)):
            before = phase.calibrate()
        phase.wall = perf_counter() - start - paused
        if phase.wall >= seconds and len(phase.raw) > TAIL_BEYOND:
            return phase


def sub_det_us(matrices):
    """Median time of one Mat2 subtraction plus det over the workload's own
    matrices, untraced."""
    mats = list(itertools.islice(matrices, 64))
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    reps = max(1, 2000 // len(pairs))
    samples = []
    for _ in range(7):
        t0 = perf_counter()
        for _ in range(reps):
            for a, b in pairs:
                (a - b).det()
        samples.append((perf_counter() - t0) / (reps * len(pairs)))
    return 1e6 * statistics.median(samples)


def kind_summary(phase):
    by_kind = collections.defaultdict(list)
    for kind, lat in zip(phase.kinds, phase.latency()):
        by_kind[kind].append(lat)
    return {k: {"n": len(v), "p50_ms": 1000.0 * statistics.median(v)}
            for k, v in sorted(by_kind.items())}


def phase_record(phase):
    """Everything measured in a phase, raw and corrected."""
    return {"corrected": Phase.summary(phase.latency()),
            "raw": Phase.summary(phase.raw),
            "reference_calibration_s": phase.fastest,
            "kinds": kind_summary(phase),
            "ops": [{"kind": k, "raw_s": r, "calibration_s": c}
                    for k, r, c in zip(phase.kinds, phase.raw, phase.speed)]}


def run_workload(args):
    import workloads
    import tracing

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        wl = build(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        env = environment(args.seed)
        counters = collections.Counter()
        record = {"workload": args.workload, "trace": args.trace,
                  "env": env, "seconds": args.seconds}
        if not args.trace:
            probes = SetupProbes(args.workload, args.seed)
            phase = closed_loop(wl, args.seconds, counters, wl.run,
                                probes.due)
            probes.due(1.0, phase)
            summary = Phase.summary(phase.latency())
            metrics = {
                "setup_s": (statistics.median(probes.corrected(phase)), "s"),
                "ops_per_s": (summary["ops_per_s"], "1/s"),
                "op_p50_ms": (summary["op_p50_ms"], "ms"),
                "op_tail_ms": (summary["op_tail_ms"], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MB"),
            }
            phases = [phase]
            record.update(setup_probes_s=probes.times,
                          setup_probes_at=probes.at,
                          timed=phase_record(phase))
        else:
            half = args.seconds / 2.0
            plain = closed_loop(wl, half, collections.Counter(), wl.run)
            tracer = tracing.Tracer()
            run = {kind: tracer.span("op." + kind, wl.run)
                   for rnd in wl.rounds for kind in (op.kind for op in rnd)}

            def check(op, result, counters):
                with tracer.suspend():  # the checks' own library calls
                    return wl.check(op, result, counters)
            tracer.install()
            try:
                traced = closed_loop(wl, half, counters,
                                     lambda op: run[op.kind](op), check=check)
            finally:
                tracer.uninstall()
            # one reference for both halves, so that the overhead compares
            # like with like even if one half never saw an uncontended moment
            plain.fastest = traced.fastest = min(plain.fastest, traced.fastest)
            metrics = tracing.layer_metrics(tracer, workloads.CLI_SUBCOMMANDS,
                                            len(traced.raw))
            metrics["hulls.l2_pc_disagree"] = (
                counters["hulls.l2_pc_disagree"]
                / max(counters["hulls.queries"], 1), "ratio")
            metrics["core.sub_det_us"] = (sub_det_us(wl.matrices()), "us")
            plain_s = Phase.summary(plain.latency())
            traced_s = Phase.summary(traced.latency())
            phases = [plain, traced]
            metrics.update({
                "trace.untraced_ops_per_s": (plain_s["ops_per_s"], "1/s"),
                "trace.traced_ops_per_s": (traced_s["ops_per_s"], "1/s"),
                "trace.overhead": (plain_s["ops_per_s"]
                                   / traced_s["ops_per_s"] - 1.0, "ratio"),
                "op_tail_pct": (plain_s["tail_percentile"], "%"),
                "op_samples": (len(plain.raw), "count"),
            })
            stem = f"{args.workload}-seed{args.seed}"
            (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
            record.update(untraced=phase_record(plain),
                          traced=phase_record(traced))
        attempted = sum(len(p.raw) for p in phases)
        failed = sum(p.failed for p in phases)
        metrics["fail_ratio"] = (failed / attempted, "ratio")
        errors = collections.Counter()
        for p in phases:
            errors.update(p.errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value!r} {unit}")
    if not args.trace:
        timed = record["timed"]
        print(f"  op_tail_ms is p{summary['tail_percentile']:.2f} "
              f"of {len(phase.raw)} samples")
        print("  uncorrected: " + ", ".join(
            f"{k} {v!r}" for k, v in timed["raw"].items()
            if k != "tail_percentile")
            + f", setup_s {statistics.median(probes.times)!r}")
        for kind, ks in timed["kinds"].items():
            print(f"  kind {kind:18s} n={ks['n']:5d} "
                  f"p50={ks['p50_ms']:.3f} ms")
    for error, count in sorted(errors.items()):
        print(f"  FAILED x{count}: {error}", file=sys.stderr)
    record.update(metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
                  attempted=attempted, failed=failed, errors=dict(errors))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, sort_keys=True))
    if not args.trace:
        # 0 on every correct run, so it is carried by "failed" instead
        del metrics["fail_ratio"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd).returncode or code
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cap_threads()
    try:
        import_library()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
