"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--workloads lattice,ridge] [--seeds 10]

Runs run.py --trace 0 once per seed (1..N) in each of two sets, for each
workload named in BENCHMARK.json (or given), with its run_seconds.  For
every end-to-end metric it prints, per set, the median and the spread
(distance between the first and third quartile over the median), and
whether each spread stays within the metric's bound and whether the second
set's median differs from the first's by no more than the bound, in either
direction.  setup_s is exempt from the spread check only: generating a
seed's polytopes costs what that seed's coordinates cost, so its spread
across seeds is the inputs', not the machine's.  Exits 1 if any check fails
or any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    seeds = range(1, args.seeds + 1)
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for set_no in range(SETS):
            runs = []
            for seed in seeds:
                result = one_run(workload, seed, bench["run_seconds"])
                ok &= result["correct"]
                runs.append(result)
                values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
                print(f"{workload} set {set_no + 1} seed {seed} "
                      f"correct={result['correct']} {values}", flush=True)
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            cells = []
            for i, (median, rel) in enumerate(stats):
                steady = name == "setup_s" or rel <= bound
                shift = sign * (median - stats[0][0]) / stats[0][0]
                agrees = abs(shift) <= bound
                ok &= steady and agrees
                cells.append(
                    f"set{i + 1} median {median:.4g} spread {rel:.3f}"
                    f"{'' if steady else ' (over bound)'}"
                    + (f" shift {shift:+.3f}{'' if agrees else ' (over bound)'}" if i else "")
                )
            print(f"{workload} {name} bound {bound}: " + "; ".join(cells), flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
