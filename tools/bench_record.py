"""Record points of the performance trajectory in BENCH_<pr>.json.

Runs ``perfbench/run.py --trace 0`` of one or more checkouts as a
subprocess, once per workload of BENCHMARK.json at seed 1, ``--runs``
times, and stores under ``records[<name>]`` of ``BENCH_<pr>.json`` at the
root of this repository, for each checkout:

- the median of each end-to-end metric of BENCHMARK.json per workload, with
  every run's values, whether every run was correct and the run length;
- per workload, the median over the runs of each operation kind's
  ``p50_ms``, read from ``timed.kinds`` of the record file that each run
  writes, so that the file shows which kind moved;
- ``wc -l src/rohull/*.py`` of the checkout, per file and in total;
- ``nproc`` and the Python and numpy versions;
- with ``--criteria-log``, the time of each ``CRITERION n: PASS`` line of a
  pytest log of the acceptance tests.

The runs of several checkouts alternate, run by run, so that a slow spell
of the machine falls on all of them.  Records of other names already in the
file are kept:

    python tools/bench_record.py --pr 12 --record parent=../parent \
        --record change=. --criteria-log change=tier1.log

Each run lasts as long as ``perfbench/run.py`` decides by default; its
length is read from the record file that the run writes.  Standard library
only.  It takes minutes per workload and checkout, so it is run by
hand, not in CI.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION = re.compile(r"CRITERION (\d+): PASS .*\((\d+(?:\.\d+)?)s\)")


def line_counts(tree: Path) -> dict:
    counts = {}
    for path in sorted((tree / "src" / "rohull").glob("*.py")):
        with open(path, "rb") as f:
            counts[path.name] = f.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def criteria_times(log: Path) -> dict:
    return {num: float(t)
            for num, t in CRITERION.findall(log.read_text(errors="replace"))}


def run_workload(tree: Path, workload: str) -> dict:
    """The result line of one benchmark run, with the run's length in
    seconds and each operation kind's p50_ms from the record file that the
    run writes."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = tree / ".perfbench-out" / f"{workload}-seed1-trace0.json"
    record = json.loads(path.read_text())
    result["seconds"] = record["seconds"]
    result["kinds_p50_ms"] = {kind: k["p50_ms"]
                              for kind, k in record["timed"]["kinds"].items()}
    return result


def measure(trees: dict, runs: int) -> dict:
    """Per checkout name, the runs of every workload, alternating the order
    of the checkouts from one run to the next."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"]]
    out = {name: {} for name in trees}
    for w in bench["workloads"]:
        results = {name: [] for name in trees}
        for k in range(runs):
            for name in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
                print(f"{w['name']}: {name} run {k + 1} of {runs}",
                      file=sys.stderr)
                results[name].append(run_workload(trees[name], w["name"]))
        for name, res in results.items():
            values = {m: [r["metrics"][m]["value"] for r in res]
                      for m in metrics}
            kinds = {k: [r["kinds_p50_ms"][k] for r in res]
                     for k in res[0]["kinds_p50_ms"]}
            out[name][w["name"]] = {
                "correct": all(r["correct"] for r in res),
                "seconds": res[0]["seconds"],
                "median": {m: statistics.median(v)
                           for m, v in values.items()},
                "runs": values,
                "kinds_p50_ms": {k: statistics.median(v)
                                 for k, v in kinds.items()},
            }
    return out


def named_path(text: str):
    name, sep, path = text.partition("=")
    if not (sep and name and path):
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    return name, Path(path).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="writes BENCH_<pr>.json at the repository root")
    parser.add_argument("--record", type=named_path, action="append",
                        help="NAME=CHECKOUT, repeatable "
                             "(default: change=this checkout)")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--criteria-log", type=named_path, action="append",
                        default=[], help="NAME=LOG: pytest output with the "
                                         "CRITERION lines, for record NAME")
    args = parser.parse_args(argv)
    trees = dict(args.record or [("change", ROOT)])
    logs = dict(args.criteria_log)
    if args.runs < 1:
        parser.error("--runs must be positive")
    if not logs.keys() <= trees.keys():
        parser.error("--criteria-log names a record that is not measured")
    workloads = measure(trees, args.runs)
    path = ROOT / f"BENCH_{args.pr}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("pr", args.pr)
    for name, tree in trees.items():
        record = {
            "seed": 1,
            "workloads": workloads[name],
            "wc_l": line_counts(tree),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
        }
        if name in logs:
            record["criteria_s"] = criteria_times(logs[name])
        data.setdefault("records", {})[name] = record
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {', '.join(trees)} to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
