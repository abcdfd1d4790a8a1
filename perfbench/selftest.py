"""Self-test of the benchmark's exact counts and checkers (no timing asserted).

    python3 perfbench/selftest.py

Runs three traced requests on the 3-cube and checks the counts the
benchmark derives from their spans, then feeds the checkers one right and
one corrupted response each.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import comb

from run import HERE, SRC, WORK, _env

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from facelab.generators import cube  # noqa: E402
from facelab.hypergraph import build_hypergraph  # noqa: E402
from facelab.polytope import face_lattice, save_polytope  # noqa: E402
from layers import LayerTotals, combination_rank  # noqa: E402


def traced(work, argv: list[str]) -> tuple[dict, dict]:
    """Run one traced request; return its envelope and its counts."""
    trace_file = work / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "trace_entry.py"), str(trace_file)] + argv,
        cwd=work, env=_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    totals = LayerTotals()
    totals.add(json.loads(trace_file.read_text()), 1.0)
    return json.loads(proc.stdout), totals.counts


def expect(label: str, got, want) -> None:
    if got != want:
        raise SystemExit(f"FAIL {label}: got {got!r}, want {want!r}")
    print(f"ok   {label} = {got!r}")


def main() -> int:
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        p = cube(3)
        save_polytope(p, str(work / "cube3.poly"))
        lattice = face_lattice(p)

        _, counts = traced(work, ["verify-theorem", "cube3.poly", "--k", "1"])
        expect("subsets_scanned, verify-theorem --k 1 on the 3-cube",
               counts["hypergraph.subsets_scanned"], 13)
        expect("hyperplane_through_calls for the 3-cube's facets",
               counts["geometry.hyperplane_through_calls"], comb(8, 3))

        argv = ["connectivity", "cube3.poly", "--k", "1", "--cap", "3", "--witness"]
        env, counts = traced(work, argv)
        witness = env["output"]["witness"]
        expect("witness of connectivity --k 1 --cap 3", witness["removed"], ["v0-v1", "v0-v2"])
        expect("subsets_scanned, connectivity --k 1 --cap 3 --witness",
               counts["hypergraph.subsets_scanned"], 14)
        expect("rank of the last 2-subset of 12", combination_rank([10, 11], 12), comb(12, 2) - 1)

        meta = {"k": 1, "cap": 3, "alpha": 2}
        expect("connectivity check", checks.check_connectivity(env["output"], lattice, meta), [])
        stopped = dict(env["output"], alpha=3, capped=True, witness=None)
        expect("connectivity check of a scan that missed the witness",
               bool(checks.check_connectivity(stopped, lattice, meta)), True)

        hg = build_hypergraph(lattice, 1)
        expect("witness re-check", checks.witness_disconnects(hg, witness), True)
        moved = dict(witness, component_a=witness["component_a"][:-1],
                     component_b=witness["component_b"] + witness["component_a"][-1:])
        expect("witness with a node moved across", checks.witness_disconnects(hg, moved), False)

        env, _ = traced(work, ["lattice", "cube3.poly"])
        out = env["output"]
        expect("lattice check", checks.check_lattice(out, "cube"), [])
        broken = dict(out, inclusions=out["inclusions"][1:])
        expect("lattice check without one cover", bool(checks.check_lattice(broken, "cube")), True)
        expect("closed form of the 3-cross-polytope",
               checks.closed_form_f_vector("cross", 3), (6, 12, 8))
        expect("closed form of the 5-pyramid", checks.closed_form_f_vector("pyramid", 5),
               (17, 48, 56, 32, 9))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
