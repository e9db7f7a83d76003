"""Run the benchmark over several seeds and report how steady each metric is.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads series-stress] \
        [--traced-seed 1] [--out perfbench/baseline.json]

Each workload runs once per seed, one run at a time, for the ``run_seconds``
in ``BENCHMARK.json``.  For every end-to-end metric it prints the median of
the runs and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  It exits with 1 unless every spread, ``setup_s``
included, is below a third of its bound.  ``--traced-seed`` adds one traced
run per workload, and ``--out`` writes everything, with the machine and
revision, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Never used while the benchmark was tuned or proved; kept for rechecking a
# later performance claim on inputs it was not developed against.
RESERVED_SEED = 97


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *bench["command"][1:]]
    argv += ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["info"] = lines[:-1]
    result["run_s"] = time.perf_counter() - start
    return result


def git_revision() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "reserved_seed": RESERVED_SEED,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs = [run_once(bench, workload, seed, 0) for seed in args.seeds]
        entry = {"runs": runs, "metrics": {}}
        print(f"{workload}: {len(runs)} runs, {sum(r['run_s'] for r in runs):.0f} s")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            within = spread < metric["bound"] / 3
            steady &= within
            entry["metrics"][metric["name"]] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": metric["bound"],
            }
            print(
                f"  {metric['name']:12s} median {median:<12.6g} spread {spread:6.3f}"
                f"  bound {metric['bound']:.2f}  {'ok' if within else 'WIDE'}"
            )
        entry["all_correct"] = all(r["correct"] and r["failed"] == 0 for r in runs)
        if args.traced_seed is not None:
            traced = run_once(bench, workload, args.traced_seed, 1)
            entry["traced"] = traced
            print("  " + "\n  ".join(traced["info"]))
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
