"""Byte-for-byte CLI outputs against recorded golden files.

Deterministic commands are the behaviour contract: their stdout must not
change unless a change says so.  Each case runs `facelab.cli.main` with the
working directory set to `tests/golden/`, so the file names echoed under
`inputs` are the relative names stored there.

To record the files with some version of facelab, run this module as a
script with that version's sources first on the path:

    PYTHONPATH=<checkout>/src python tests/test_golden.py

It writes the input polytopes, one `<case>.out` file of stdout per case,
and the random-polytope pins.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

# Input files: generator family arguments, or literal file text.
INPUTS = {
    "cube3.poly": ("cube", 3, None),
    "cross4.poly": ("cross", 4, None),
    "cyclic4_8.poly": ("cyclic", 4, 8),
    # The apex (1/2, 1/2, 1/2, 1) gives vertex rows with x0 = 2.
    "pyramid4.poly": ("pyramid", 4, None),
    # Point 2 is an edge midpoint and point 4 lies on the hypotenuse.
    "nonvertex.poly": "polytope 2 5\n0 0\n2 0\n1 0\n0 2\n1 1\n",
    # Collinear in 3-space: point 2 is the midpoint of the other two.
    "flat_nonvertex.poly": "polytope 3 3\n0 0 0\n2 4 6\n1 2 3\n",
    # A unit square in the plane x3 = 0 of 3-space.
    "flat_square.poly": "polytope 3 4\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n",
    "empty.poly": "",
    "zero_dim.poly": "polytope 0 3\n",
    # The lowest grades a lattice or a slice can have.
    "segment.poly": "polytope 1 2\n0\n1\n",
    "triangle.poly": "polytope 2 3\n0 0\n1 0\n0 1\n",
}

# Per polytope: section plane and a ridge-path query with |B| = k = 2.
QUERIES = {
    "cube3": ("1,0,0;1/2", "v0-v1-v4-v5,v2-v3-v6-v7", "v0-v1-v2-v3", "v4-v5-v6-v7"),
    "cross4": ("1,1,1,1;1/2", "v0-v2-v5,v0-v2-v6", "v0-v2-v4", "v3-v5-v7"),
    "cyclic4_8": ("1,0,0,0;9/2", "v0-v1-v3,v0-v1-v4", "v0-v1-v2", "v5-v6-v7"),
    # Depth 1; the search's first plane grazes a vertex, so it is nudged.
    "pyramid4": ("2,1,1,1;5/2", "v0-v1-v4-v5,v0-v4-v8", "v0-v2-v8", "v1-v3-v8"),
}

# Per polytope: a connectivity cap one above its alpha, so the scan stops at
# a disconnecting set and reports its witness.
WITNESS_CAPS = {"cube3": 3, "cross4": 5, "cyclic4_8": 4, "pyramid4": 4}

# random_polytope(d, n, seed) texts, pinning its accept/redraw decisions.
RANDOM_PINS = "random_polytopes.txt"
RANDOM_SPECS = [
    (d, n, seed)
    for d, n in ((4, 10), (4, 11), (5, 8), (5, 9), (5, 10))
    for seed in range(1, 6)
]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for stem, (plane, blocked, start, goal) in QUERIES.items():
        f = f"{stem}.poly"
        cases[f"{stem}.lattice"] = ["lattice", f]
        cases[f"{stem}.hypergraph"] = ["hypergraph", f, "--k", "1"]
        cases[f"{stem}.connectivity"] = ["connectivity", f, "--k", "1", "--witness"]
        cases[f"{stem}.dual"] = ["dual", f]
        cases[f"{stem}.section"] = ["section", f, "--plane", plane]
        cases[f"{stem}.ridge_path"] = [
            "ridge-path", f, "--k", "2", "--blocked", blocked,
            "--from", start, "--to", goal, "--verify",
        ]
        cases[f"{stem}.verify_theorem"] = ["verify-theorem", f]
        cases[f"{stem}.connectivity_witness"] = [
            "connectivity", f, "--k", "1", "--cap", str(WITNESS_CAPS[stem]), "--witness",
        ]
    cases["nonvertex.lattice"] = ["lattice", "nonvertex.poly"]
    cases["flat_nonvertex.lattice"] = ["lattice", "flat_nonvertex.poly"]
    # A segment's slice is a point (a 0-dimensional lattice); a triangle's
    # is a segment.
    for stem, plane in [("segment", "1;1/2"), ("triangle", "1,1;1/2")]:
        cases[f"{stem}.lattice"] = ["lattice", f"{stem}.poly"]
        cases[f"{stem}.section"] = ["section", f"{stem}.poly", "--plane", plane]
    # Outside input that each command refuses with exit code 2.
    cases["flat_square.dual"] = ["dual", "flat_square.poly"]
    cases["empty.lattice"] = ["lattice", "empty.poly"]
    cases["zero_dim.lattice"] = ["lattice", "zero_dim.poly"]
    # The id edge: each of these requests is refused with exit code 2.
    ridge = ["ridge-path", "cube3.poly", "--k", "2"]
    square = ["--to", "v0-v1-v2-v3"]
    cases["cube3.ridge_path_huge_index"] = ridge + ["--from", "v99999999999"] + square
    cases["cube3.ridge_path_unsorted_id"] = ridge + ["--from", "v1-v0"] + square
    cases["cube3.ridge_path_wrong_dim"] = (
        ridge + ["--blocked", "v0-v1", "--from", "v0-v1-v4-v5"] + square
    )
    cases["cube3.ridge_path_blocked_endpoint"] = ridge + [
        "--blocked", "v0-v1-v2-v3", "--from", "v0-v1-v2-v3", "--to", "v4-v5-v6-v7",
    ]
    # "" is the empty blocked set, but an empty item in a list is no face id.
    cases["cube3.ridge_path_empty_blocked_item"] = ridge + [
        "--blocked", "v0-v1-v4-v5,", "--from", "v0-v1-v2-v3", "--to", "v4-v5-v6-v7",
    ]
    # "," is two empty items, refused as a repeat before either is looked up.
    cases["cube3.ridge_path_blank_blocked_items"] = ridge + [
        "--blocked", ",", "--from", "v0-v1-v2-v3", "--to", "v4-v5-v6-v7",
    ]
    cases["cube3.ridge_path_repeated_blocked"] = [
        "ridge-path", "cube3.poly", "--k", "1", "--blocked", "v0-v1,v0-v1",
        "--from", "v0-v2", "--to", "v1-v3",
    ]
    cases["cube3.ridge_path_negative_k"] = [
        "ridge-path", "cube3.poly", "--k", "-1", "--from", "v0", "--to", "v7",
    ]
    cases["cube3.hypergraph_k_out_of_range"] = ["hypergraph", "cube3.poly", "--k", "3"]
    cases["cube3.connectivity_cap_zero"] = [
        "connectivity", "cube3.poly", "--k", "1", "--cap", "0",
    ]
    # Depth-2 ridge paths: the solver slices twice before its BFS.
    cases["cross4.ridge_path_depth2"] = [
        "ridge-path", "cross4.poly", "--k", "3",
        "--blocked", "v0-v2-v4-v6,v0-v2-v4-v7,v0-v2-v5-v6",
        "--from", "v0-v2-v5-v7", "--to", "v1-v3-v5-v7", "--verify",
    ]
    cases["cyclic4_8.ridge_path_depth2"] = [
        "ridge-path", "cyclic4_8.poly", "--k", "3",
        "--blocked", "v0-v1-v2-v3,v0-v1-v2-v7,v0-v1-v3-v4",
        "--from", "v0-v1-v4-v5", "--to", "v4-v5-v6-v7", "--verify",
    ]
    cases["pyramid4.ridge_path_depth2"] = [
        "ridge-path", "pyramid4.poly", "--k", "3",
        "--blocked", "v0-v1-v4-v5-v8,v1-v3-v5-v7-v8,v2-v3-v6-v7-v8",
        "--from", "v0-v1-v2-v3-v4-v5-v6-v7", "--to", "v0-v1-v2-v3-v8", "--verify",
    ]
    # --seed has no effect: only the inputs echo differs from the case without it.
    cases["pyramid4.ridge_path_seed7"] = cases["pyramid4.ridge_path"] + ["--seed", "7"]
    # Command lines refused before any command runs: the envelope echoes argv.
    cases["cli.no_command"] = []
    cases["cli.unknown_command"] = ["nope", "cube3.poly"]
    cases["cli.lattice_without_file"] = ["lattice"]
    verify = ["verify-theorem", "cube3.poly"]
    cases["cube3.verify_theorem_k_not_int"] = verify + ["--k", "one"]
    # Leaving out --k asks for every k, so there is no flag for it.
    cases["cube3.verify_theorem_all_k_refused"] = verify + ["--all-k"]
    # Each k is scanned at cap dim - k; exact alpha is `connectivity --cap`'s job.
    cases["cube3.verify_theorem_cap_override_refused"] = verify + ["--cap-override", "1"]
    cases["cube3.verify_theorem_k2"] = verify + ["--k", "2"]
    # The output is compact JSON; `python3 -m json.tool` indents it.
    cases["cube3.lattice_pretty_refused"] = ["lattice", "cube3.poly", "--pretty"]
    return cases


CASES = _cases()


def _stdout(argv: list[str]) -> str:
    from facelab.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(argv)
    return buffer.getvalue()


def _random_pins() -> str:
    from facelab.generators import random_polytope
    from facelab.polytope import format_polytope

    return "".join(
        f"# random_polytope({d}, {n}, seed={seed})\n"
        + format_polytope(random_polytope(d, n, seed))
        for d, n, seed in RANDOM_SPECS
    )


def record() -> None:
    from facelab.generators import GeneratorSpec, generate
    from facelab.polytope import save_polytope

    GOLDEN.mkdir(exist_ok=True)
    for name, source in INPUTS.items():
        if isinstance(source, str):
            (GOLDEN / name).write_text(source, encoding="utf-8")
        else:
            family, dim, n = source
            save_polytope(generate(GeneratorSpec(family, dim, n)), str(GOLDEN / name))
    os.chdir(GOLDEN)
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.out").write_text(_stdout(argv), encoding="utf-8")
    (GOLDEN / RANDOM_PINS).write_text(_random_pins(), encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert _stdout(CASES[case]) == expected


def test_seed_leaves_ridge_path_output_unchanged():
    def output(case: str) -> dict:
        return json.loads((GOLDEN / f"{case}.out").read_text(encoding="utf-8"))["output"]

    assert output("pyramid4.ridge_path_seed7") == output("pyramid4.ridge_path")


def _readme_examples() -> list[tuple[list[str], str]]:
    """Each `$ facelab` example in README.md: its argv, and its output with
    the lines stripped and joined, as the README wraps them."""
    readme = (GOLDEN.parent.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in readme.split("```")[1::2]:
        if block.startswith("\n$ facelab "):
            command, _, output = block.strip().replace("\\\n", " ").partition("\n")
            joined = "".join(line.strip() for line in output.splitlines())
            examples.append((shlex.split(command)[2:], joined))
    return examples


def test_readme_cli_examples_match_live_output(tmp_path, monkeypatch):
    # Between the `...` marks an example is stdout verbatim; without them,
    # all of it.  `gen` writes the file the others read.
    monkeypatch.chdir(tmp_path)
    examples = sorted(_readme_examples(), key=lambda example: example[0][0] != "gen")
    for argv, joined in examples:
        pattern = ".*".join(re.escape(fragment) for fragment in joined.split("..."))
        assert re.fullmatch(pattern + "\n", _stdout(argv), re.DOTALL), argv
    from facelab.cli import _SUBCOMMANDS

    assert sorted(argv[0] for argv, _ in examples) == sorted(_SUBCOMMANDS)


def test_random_polytopes_match_pins():
    assert _random_pins() == (GOLDEN / RANDOM_PINS).read_text(encoding="utf-8")


if __name__ == "__main__":
    record()
