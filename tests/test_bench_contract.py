"""The benchmark's response checks and trace hooks, run on live CLI output.

`perfbench/` checks every response with facelab's own library: it compares
`FaceHypergraph.nodes` and hyperedge id sets with witness ids, reads
`Face.vertex_set`, looks faces up with `FaceLattice.face_of_set`, `face` and
`faces_of_dim`, and re-runs `verify_ridge_path` with `BlockedSet.of` and
`RidgePath` built from ids.  It also requires every k of a `verify-theorem`
response to pass at its bound.  This module imports `perfbench/checks.py` and
`perfbench/trace_entry.py` unchanged and runs them on real responses, so a
renamed or retyped name fails here rather than in a benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from facelab.cli import run
from facelab.generators import GeneratorSpec, generate
from facelab.hypergraph import build_hypergraph, strong_connectivity
from facelab.polytope import save_polytope

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# family, dim, then a witness request (k, cap, alpha) and a ridge request
# (k, blocked, from, to) per polytope.
CASES = {
    "cube3": (
        "cube", 3, (1, 3, 2),
        (2, ["v0-v1-v4-v5", "v2-v3-v6-v7"], "v0-v1-v2-v3", "v4-v5-v6-v7"),
    ),
    "cross4": (
        "cross", 4, (2, 3, 2),
        (3, ["v0-v2-v4-v6", "v0-v2-v4-v7", "v0-v2-v5-v6"], "v0-v2-v5-v7", "v1-v3-v5-v7"),
    ),
}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import trace_entry
    finally:
        sys.path.remove(str(PERFBENCH))
    return checks, trace_entry


@pytest.fixture(scope="module")
def polytopes(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench_contract")
    out = {}
    for stem, (family, dim, _, _) in CASES.items():
        p = generate(GeneratorSpec(family=family, dim=dim))
        path = directory / f"{stem}.poly"
        save_polytope(p, str(path))
        out[stem] = (str(path), p.lattice)
    return out


def _output(checks, argv: list[str]) -> dict:
    env = json.loads(run(argv).render())
    assert checks.check_envelope(env, argv[0]) == []
    return env["output"]


@pytest.mark.parametrize("stem", sorted(CASES))
def test_checks_pass_on_live_output(stem, bench, polytopes):
    checks, _ = bench
    family, dim, (k, cap, alpha), (rk, blocked, start, goal) = CASES[stem]
    path, lattice = polytopes[stem]

    assert checks.check_lattice(_output(checks, ["lattice", path]), family) == []

    assert checks.check_verify(_output(checks, ["verify-theorem", path]), dim) == []

    argv = ["connectivity", path, "--k", str(k), "--cap", str(cap), "--witness"]
    out = _output(checks, argv)
    assert out["witness"] is not None
    meta = {"k": k, "cap": cap, "alpha": alpha}
    assert checks.check_connectivity(out, lattice, meta) == []

    assert checks.ridge_reachable(lattice, rk, blocked, start, goal)
    argv = [
        "ridge-path", path, "--k", str(rk), "--blocked", ",".join(blocked),
        "--from", start, "--to", goal, "--verify",
    ]
    meta = {"k": rk, "blocked": blocked, "from": start, "to": goal}
    assert checks.check_ridge(_output(checks, argv), lattice, meta) == []


@pytest.mark.parametrize("stem", sorted(CASES))
def test_scan_attributes(stem, bench, polytopes):
    _, trace_entry = bench
    _, _, (k, cap, alpha), _ = CASES[stem]
    hg = build_hypergraph(polytopes[stem][1], k)
    report = strong_connectivity(hg, cap)
    attrs = trace_entry._scan_attrs((hg, cap), {}, report)
    removed = sorted(hg.nodes.index(r) for r in report.witness.removed)
    assert attrs == {"n": hg.n_nodes, "cap": cap, "alpha": alpha, "witness": removed}


def _trace(tmp_path, argv: list[str]) -> dict:
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_entry.py"), str(trace), *argv],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    doc = json.loads(trace.read_text(encoding="utf-8"))
    # Double description takes all its initial rays from one elimination, so
    # the library no longer has `hyperplane_through`, and the cutting plane
    # comes in closed form, so it no longer has `solve_nonnegative`.  The
    # harness records each as absent, its spans first, until it drops them.
    assert doc["absent"] == ["solve_nonnegative", "hyperplane_through"]
    return doc


def test_every_traced_name_exists(polytopes, tmp_path):
    assert _trace(tmp_path, ["lattice", polytopes["cube3"][0]])["spans"]


def test_ridge_path_spans_are_recorded(polytopes, tmp_path):
    # The CLI, not the solver, runs the verifier; the harness still wraps it
    # because the CLI module binds `verify_ridge_path` itself.
    k, blocked, start, goal = CASES["cube3"][3]
    argv = [
        "ridge-path", polytopes["cube3"][0], "--k", str(k), "--blocked", ",".join(blocked),
        "--from", start, "--to", goal, "--verify",
    ]
    spans = _trace(tmp_path, argv)["spans"]
    names = {span[0] for span in spans}
    wanted = {"ridgepath.solve", "ridgepath.search", "ridgepath.verify", "section.slice"}
    assert wanted <= names
    # The harness drops an attribute it cannot compute, and the per-layer
    # counter built from it then reads 0; a renamed view fails here instead.
    slices = [attrs for name, *_, attrs in spans if name == "section.slice"]
    assert slices and all(a is not None and a["slice_faces"] > 0 for a in slices)
    # One lattice per request, the loaded polytope's; a slice comes with its own.
    lattices = [attrs for name, *_, attrs in spans if name == "polytope.face_lattice"]
    assert lattices == [{"faces": len(polytopes["cube3"][1])}]
