"""Result records: immutable, picklable, deep-copyable, validated on construction."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from facelab.generators import GeneratorError, GeneratorSpec
from facelab.geometry import GeometryError, Hyperplane, QVector
from facelab.hypergraph import build_hypergraph, strong_connectivity
from facelab.polytope import VPolytope, save_polytope
from facelab.ridgepath import BlockedSet, RidgePathError, solve_ridge_path
from instances import GOLDEN, instance


def records() -> dict:
    p, lat = instance("cube", 3)
    hg = build_hypergraph(lat, 1)
    report = strong_connectivity(hg, cap=3)
    blocked = BlockedSet.of(2, ["v0-v1-v4-v5", "v2-v3-v6-v7"])
    result = solve_ridge_path(p, blocked, "v0-v1-v2-v3", "v4-v5-v6-v7")
    return {
        "QVector": QVector.of([F(1, 2), -3]),
        "Hyperplane": result.hyperplanes[0],
        "Face": lat.faces_of_dim(1)[3],
        "VPolytope": p,
        "VPolytope, facets not yet computed": VPolytope(p.rows),
        "FaceHypergraph": hg,
        "ConnectivityReport": report,
        "BlockedSet": blocked,
        "RidgePath": result.path,
        "RidgePathResult": result,
        "GeneratorSpec": GeneratorSpec("random", 4, n=9, seed=2, bound=5),
    }


RECORDS = records()


def test_the_cases_carry_what_they_name():
    assert RECORDS["ConnectivityReport"].witness is not None
    assert RECORDS["RidgePathResult"].depth == 1
    assert "facet_rows" in vars(RECORDS["VPolytope"])


def test_ridge_path_result_stores_depth_once():
    result = RECORDS["RidgePathResult"]
    assert result._fields == ("path", "hyperplanes")
    assert result.depth == len(result.hyperplanes)
    assert result._replace(hyperplanes=()).depth == 0


@pytest.mark.parametrize("name", list(RECORDS))
@pytest.mark.parametrize(
    "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_round_trip_keeps_value_and_hash(name, clone):
    record = RECORDS[name]
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record
    assert hash(twin) == hash(record)


def test_fields_cannot_be_assigned():
    for record, field in (
        (RECORDS["QVector"], "row"),
        (RECORDS["VPolytope"], "dim"),
        (RECORDS["Hyperplane"], "row"),
        (RECORDS["Face"], "mask"),
        (RECORDS["RidgePathResult"], "depth"),
        (RECORDS["ConnectivityReport"], "alpha"),
        (RECORDS["GeneratorSpec"], "dim"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_validated_records_raise_from_the_constructor():
    with pytest.raises(GeometryError, match="hyperplane normal must be nonzero"):
        Hyperplane.of([0, 0], F(1))
    with pytest.raises(RidgePathError, match="blocked set of size 2 exceeds the budget k=1"):
        BlockedSet(1, frozenset({"v0", "v1"}))
    with pytest.raises(GeneratorError, match="needs a vertex count"):
        GeneratorSpec("cyclic", 3)


def test_replace_runs_the_constructor_checks():
    with pytest.raises(GeometryError):
        RECORDS["Hyperplane"]._replace(row=(1, 0, 0, 0))
    with pytest.raises(RidgePathError):
        RECORDS["BlockedSet"]._replace(k=1)
    with pytest.raises(GeneratorError):
        RECORDS["GeneratorSpec"]._replace(dim=0)
    assert RECORDS["GeneratorSpec"]._replace(seed=3).seed == 3


def test_cli_import_leaves_out_the_pool_and_dataclasses(tmp_path):
    # A fresh interpreter, so modules other tests imported do not count.
    # `import facelab.cli` registers the five traced modules, and none of the
    # generators (only `gen` needs them), `fractions` or `decimal`.  Nor
    # does it load the automorphism search, which only the commands that
    # build hypergraphs need: a ridge-path request leaves it out, and a
    # verify-theorem request loads it.  That request's scan of 4-cube edge
    # pairs must not start a process pool under FACELAB_THREADS, which once
    # did, nor load the generators or the rationals.
    cube4 = str(tmp_path / "cube4.poly")
    save_polytope(instance("cube", 4)[0], cube4)
    traced = ["geometry", "polytope", "hypergraph", "ridgepath", "section"]
    heavy = [
        "dataclasses", "inspect", "concurrent.futures", "multiprocessing",
        "facelab.generators", "fractions", "decimal",
    ]
    ridge = ["ridge-path", cube4, "--k", "1", "--from", "v0-v1", "--to", "v14-v15"]
    probe = (
        "import sys, facelab.cli\n"
        f"print([m for m in {heavy!r} if m in sys.modules])\n"
        f"print([m for m in {traced!r} if 'facelab.' + m not in sys.modules])\n"
        "print('facelab.symmetry' in sys.modules)\n"
        f"print(facelab.cli.run({ridge!r}).exit_code, 'facelab.symmetry' in sys.modules)\n"
        f"result = facelab.cli.run(['verify-theorem', {cube4!r}, '--k', '1'])\n"
        "print(result.exit_code, 'facelab.symmetry' in sys.modules)\n"
        f"print([m for m in {heavy[2:]!r} if m in sys.modules])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src), "FACELAB_THREADS": "2"},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == ["[]", "[]", "False", "0 False", "0 True", "[]"]


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["lattice", "cube3.poly"], []),
        (["verify-theorem", "cube3.poly", "--k", "1"], ["hypergraph"]),
        (
            ["ridge-path", "cube3.poly", "--k", "1", "--from", "v0-v2", "--to", "v1-v3"],
            ["section", "ridgepath"],
        ),
    ],
)
def test_a_request_runs_only_its_commands_modules(argv, executed):
    # A fresh interpreter.  `import facelab` registers no submodule, and
    # `import facelab.cli` registers the command modules without running
    # them, on the package too, as an import would: until a module's first
    # attribute read it is not a plain module.
    commands = ["hypergraph", "section", "ridgepath"]
    probe = (
        "import sys, types, facelab\n"
        "print([m for m in sys.modules if m.startswith('facelab.')])\n"
        "import facelab.cli\n"
        f"print(all(getattr(facelab, m) is sys.modules['facelab.' + m] for m in {commands!r}))\n"
        f"print(facelab.cli.run({argv!r}).exit_code)\n"
        f"print([m for m in {commands!r}"
        " if type(sys.modules['facelab.' + m]) is types.ModuleType])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=GOLDEN,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == ["[]", "True", "0", repr(executed)]
