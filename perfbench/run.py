"""facelab benchmark: closed-loop CLI requests, checked responses, metrics.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One client sends one `python -m facelab ...` subprocess per request, each
when the previous one has exited, over the workload's seeded request pass,
repeating whole passes until --seconds have elapsed.  Every response is
checked (see checks.py).  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 the same requests go through
trace_entry.py, each followed by its untraced twin for the tracing
overhead, and it carries the per-layer metrics.  `--workload all` runs every
workload in both modes.  Lines before the last explain each figure: sample
counts, percentiles, numerators and denominators.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from math import floor
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 30.0
# Sending stops at this age of a loop; requests not sent by then count as
# failed.  Keeps a run of even the slowest program under three minutes.
LOOP_LIMIT_S = 150.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)



def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@dataclass
class Outcome:
    index: int
    request: int = 0  # position in the pass
    variant: int = 0  # which command prefix ran it
    latency_s: float | None = None  # None: never sent
    exit_code: int | None = None
    timed_out: bool = False
    maxrss_kb: int = 0
    problem: str | None = None


def _kill_group(pid: int, fired: list) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
        fired.append(True)
    except ProcessLookupError:
        pass


def run_one(argv: list[str], env: dict, cwd: Path, timeout: float, out: Path) -> Outcome:
    """Spawn, wait, and time one request; kill its process group on timeout."""
    outcome = Outcome(index=-1)
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        fired: list = []
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdout=stdout, stderr=stderr, env=env, cwd=cwd, start_new_session=True
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid, fired))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        outcome.latency_s = perf_counter() - start
        timer.cancel()
        timer.join()
    proc.returncode = outcome.exit_code = os.waitstatus_to_exitcode(status)
    outcome.timed_out = bool(fired)
    # On Linux a waited child's ru_maxrss also covers the children it
    # waited for, such as scan pool workers.
    outcome.maxrss_kb = usage.ru_maxrss
    return outcome


def closed_loop(
    requests, prefixes: list[list[str]], env: dict, cwd: Path, seconds: float
) -> tuple[list[Outcome], float]:
    """Whole passes until `seconds` have elapsed; each request runs once per
    prefix, back to back.  Returns the outcomes and the loop's wall time."""
    outcomes = []
    start = perf_counter()
    while True:
        for r, req in enumerate(requests):
            for v, prefix in enumerate(prefixes):
                n = len(outcomes)
                remaining = LOOP_LIMIT_S - (perf_counter() - start)
                if remaining <= 0:
                    problem = "not sent before the loop's time limit"
                    outcomes.append(Outcome(n, r, v, problem=problem))
                    continue
                argv = [a.replace("{n}", str(n)) for a in prefix] + req.argv
                timeout = min(REQUEST_TIMEOUT_S, remaining)
                outcome = run_one(argv, env, cwd, timeout, cwd / f"{n}.out")
                outcome.index, outcome.request, outcome.variant = n, r, v
                outcomes.append(outcome)
        if perf_counter() - start >= seconds:
            return outcomes, perf_counter() - start


def quantile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    h = (len(xs) - 1) * p
    lo = floor(h)
    return xs[lo] + (h - lo) * (xs[min(lo + 1, len(xs) - 1)] - xs[lo])


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten samples beyond it."""
    return next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 50.0)


class Checker:
    """Checks responses, once per distinct (request, output) pair."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.seen: dict[tuple, str | None] = {}

    def problem(self, req, outcome: Outcome, out: Path) -> str | None:
        if outcome.problem:
            return outcome.problem
        if outcome.timed_out:
            return f"timed out after {outcome.latency_s:.1f} s"
        if outcome.exit_code != 0:
            return f"exit code {outcome.exit_code}"
        text = out.read_bytes()
        key = (tuple(req.argv), text)
        if key not in self.seen:
            self.seen[key] = self._check(req, text)
        return self.seen[key]

    def _check(self, req, text: bytes) -> str | None:
        import checks

        try:
            env = json.loads(text.splitlines()[-1])
        except (ValueError, IndexError):
            return "stdout is not a JSON envelope"
        command = req.argv[0]
        problems = checks.check_envelope(env, command)
        if not problems:
            out = env["output"]
            family = self.plan.specs[req.stem].family
            if req.kind == "lattice":
                problems = checks.check_lattice(out, family)
            elif req.kind == "dual":
                problems = checks.check_dual(out, family, self.plan.polytopes[req.stem].dim)
            elif req.kind == "verify":
                problems = checks.check_verify(out, self.plan.polytopes[req.stem].dim)
            elif req.kind == "connectivity":
                problems = checks.check_connectivity(out, self.plan.lattice(req.stem), req.meta)
            else:
                problems = checks.check_ridge(out, self.plan.lattice(req.stem), req.meta)
        return "; ".join(problems) or None


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FACELAB_THREADS"}
    # A fixed hash seed keeps set iteration orders, and so run times, the
    # same from one request to the next.
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def _check_outcomes(checker, requests, outcomes, cwd: Path, notes: list) -> int:
    failed = 0
    for outcome in outcomes:
        req = requests[outcome.request]
        problem = checker.problem(req, outcome, cwd / f"{outcome.index}.out")
        if problem:
            failed += 1
            notes.append(f"FAILED {' '.join(req.argv)}: {problem}")
    return failed


def timed_setup(plan, directory: Path) -> float:
    """Regenerate the plan's polytopes and write them to a fresh directory."""
    shutil.rmtree(directory, ignore_errors=True)
    start = perf_counter()
    plan.regenerate()
    plan.write(directory)
    return perf_counter() - start


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    from layers import LayerTotals
    from workloads import make_plan

    work = WORK / f"{workload}-{seed}-{trace}-{os.getpid()}"
    setup_dir = work.with_name(work.name + "-setup")
    notes: list[str] = []
    try:
        # Setup is generating and writing the polytope files.  The first
        # sample is taken while the plan is made; the others regenerate the
        # same polytopes into a spare directory, one before the loop and the
        # rest after it, so that the median does not hang on how fast the
        # machine happened to be in the few seconds before the loop.
        shutil.rmtree(work, ignore_errors=True)
        plan = make_plan(workload, seed)
        start = perf_counter()
        plan.write(work)
        setup_times = [perf_counter() - start + plan.generate_s]
        repeats = SETUP_REPEATS - 1 if trace == 0 else 0
        setup_times += [timed_setup(plan, setup_dir) for _ in range(min(repeats, 1))]
        requests = plan.requests
        env = _env()
        plain = [sys.executable, "-m", "facelab"]
        traced = [sys.executable, str(HERE / "trace_entry.py"), str(work / "trace{n}.json")]
        # Untimed: compiles the sources to bytecode and warms the file cache.
        run_one(plain + ["--help"], env, work, REQUEST_TIMEOUT_S, work / "warmup.out")
        # Traced runs send each request traced and then untraced, so the
        # overhead compares neighbours that saw the same machine load.
        prefixes = [traced, plain] if trace else [plain]
        outcomes, wall = closed_loop(requests, prefixes, env, work, seconds)
        setup_times += [timed_setup(plan, setup_dir) for _ in range(repeats - 1)]
        failed = _check_outcomes(Checker(plan), requests, outcomes, work, notes)
        attempted = len(outcomes)
        sent = [o for o in outcomes if o.latency_s is not None]
        notes.append(
            f"workload {workload} seed {seed}: {len(requests)} requests per pass, "
            f"{attempted} attempted, {len(sent)} completed in {wall:.3f} s"
        )
        if trace == 0:
            latencies = [o.latency_s for o in sent]
            p_tail = tail_percentile(len(latencies))
            metrics = {
                "requests_per_s": len(sent) / wall,
                "latency_p50_s": quantile(latencies, 0.5),
                "latency_tail_s": quantile(latencies, p_tail / 100),
                "peak_rss_mb": max(o.maxrss_kb for o in sent) / 1024,
                "setup_s": statistics.median(setup_times),
            }
            units = metric_units("end_to_end")
            notes += [
                f"requests_per_s = {len(sent)} requests / {wall:.4f} s",
                f"latency_tail_s = p{p_tail:g} of {len(latencies)} samples",
                "setup_s = median of " + ", ".join(f"{t:.4f}" for t in setup_times),
            ]
        else:
            totals = LayerTotals()
            for o in sent:
                trace_file = work / f"trace{o.index}.json"
                if o.variant == 0 and trace_file.is_file():
                    totals.add(json.loads(trace_file.read_text()), o.latency_s)
            busy = [sum(o.latency_s for o in sent if o.variant == v) for v in (0, 1)]
            rates = [sum(o.variant == v for o in sent) / (busy[v] or 1) for v in (0, 1)]
            metrics, layer_notes = totals.metrics(rates[1], rates[0])
            units = metric_units("per_layer")
            notes += layer_notes
        notes.append(
            f"{workload} error_rate {failed / attempted:.6g} ratio"
            f" = {failed} failed / {attempted} attempted"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(setup_dir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "facelab" / "__init__.py").is_file():
        print(f"no facelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    elif args.workload in WORKLOADS:
        runs = [(args.workload, args.trace)]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}, all")
    results = {}
    for workload, trace in runs:
        result, notes = run_workload(workload, args.seed, args.seconds, trace)
        for line in notes:
            print(line)
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
        results[(workload, trace)] = result
    if len(runs) == 1:
        print(json.dumps(result))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for (w, _), r in results.items()
                for name, metric in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
