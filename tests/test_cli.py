"""CLI envelopes, schemas, exit codes, and determinism."""

import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from facelab import cli
from facelab.cli import CliError, build_parser, main, run
from facelab.generators import GeneratorError
from facelab.geometry import FacelabError, GeometryError
from facelab.hypergraph import HypergraphError
from facelab.polytope import PolytopeError, load_polytope
from facelab.ridgepath import RidgePathError
from facelab.schemas import load_schema
from facelab.section import SectionError
from instances import GOLDEN

ENVELOPE = Draft202012Validator(load_schema("envelope"))


def invoke(*argv: str):
    result = run(list(argv))
    doc = json.loads(result.render())
    ENVELOPE.validate(doc)
    return doc, result.exit_code


def check_output(doc: dict, schema_name: str) -> None:
    Draft202012Validator(load_schema(schema_name)).validate(doc["output"])


@pytest.fixture()
def cube3_file(tmp_path):
    path = str(tmp_path / "cube3.poly")
    doc, code = invoke("gen", "--family", "cube", "--dim", "3", "--out", path)
    assert code == 0
    return path


class TestGen:
    def test_writes_file_and_reports(self, tmp_path):
        out = str(tmp_path / "p.poly")
        doc, code = invoke("gen", "--family", "simplex", "--dim", "3", "--out", out)
        assert code == 0 and doc["status"] == "ok"
        check_output(doc, "gen")
        assert doc["output"]["n_vertices"] == 4
        assert open(out).read().startswith("polytope 3 4")

    def test_random_family_echoes_seed(self, tmp_path):
        out = str(tmp_path / "r.poly")
        doc, code = invoke(
            "gen", "--family", "random", "--dim", "3", "--n", "6", "--seed", "2", "--out", out
        )
        assert code == 0
        assert doc["inputs"]["seed"] == 2

    def test_bad_family_is_parse_error(self, tmp_path):
        doc, code = invoke("gen", "--family", "dodecahedron", "--dim", "3", "--out", "x")
        assert code == 2 and doc["status"] == "error"

    def test_family_constraint_violation(self, tmp_path):
        out = str(tmp_path / "c.poly")
        doc, code = invoke("gen", "--family", "cube", "--dim", "3", "--n", "9", "--out", out)
        assert code == 2 and doc["status"] == "error"

    @pytest.mark.parametrize("family", ["cyclic", "random"])
    def test_segment_with_three_vertices_is_refused(self, family, tmp_path):
        seed = ["--seed", "1"] if family == "random" else []
        argv = ["gen", "--family", family, "--dim", "1", "--n", "3", *seed]
        doc, code = invoke(*argv, "--out", str(tmp_path / "s.poly"))
        assert code == 2
        assert doc["error"] == "a 1-polytope has exactly 2 vertices, got 3"

    def test_generator_error_keeps_its_envelope(self, tmp_path):
        out = str(tmp_path / "r.poly")
        argv = ["gen", "--family", "random", "--dim", "2", "--n", "30", "--bound", "1"]
        doc, code = invoke(*argv, "--out", out)
        assert code == 2
        assert doc == {
            "command": "gen",
            "inputs": {
                "bound": 1, "dim": 2, "family": "random", "n": 30, "out": out, "seed": None,
            },
            "status": "error",
            "error": "coordinate box too small for that many distinct points",
        }

    def test_random_sampling_gives_up_in_a_box_without_general_position(self, tmp_path):
        # The 3x3 box holds 9 distinct points but no 9 in general position,
        # so every draw is refused until the sampler's attempt limit.
        argv = ["gen", "--family", "random", "--dim", "2", "--n", "9", "--bound", "1"]
        doc, code = invoke(*argv, "--seed", "1", "--out", str(tmp_path / "r.poly"))
        assert code == 2
        assert doc["error"] == (
            "no valid sample after 1000 attempts (d=2, n=9, bound=1); "
            "try a larger bound or fewer points"
        )
        assert not (tmp_path / "r.poly").exists()


def test_every_library_error_is_a_facelab_error():
    for error in (
        GeometryError,
        PolytopeError,
        SectionError,
        HypergraphError,
        RidgePathError,
        GeneratorError,
        CliError,
    ):
        assert issubclass(error, FacelabError) and issubclass(error, ValueError)


class TestParse:
    """One subparser per request, with the full parser's parse, help and errors."""

    ARGVS = [
        ["lattice", "p.poly"],
        ["lattice", "p.poly", "--pretty"],
        ["gen", "--family", "cube", "--dim", "3", "--out", "x"],
        ["connectivity", "p.poly", "--k", "1", "--cap", "3", "--witness"],
        ["ridge-path", "p.poly", "--k", "2", "--blocked", "a,b", "--from", "f", "--to", "g"],
        ["section", "p.poly", "--plane", "1,0;1/2"],
        ["verify-theorem", "p.poly"],
        ["dual", "p.poly", "--out", "d.poly"],
        ["hypergraph", "p.poly", "--k", "1"],
        ["verify-theorem", "p.poly", "--k", "1"],
        ["gen", "--family", "dodecahedron", "--dim", "3", "--out", "x"],
        ["lattice"],
        ["lattice", "p.poly", "extra"],
        ["hypergraph", "p.poly", "--k", "one"],
        ["lattice", "p.poly", "lattice"],
        ["lattice", "p.poly", "--bogus"],
        ["gen", "--family", "cube"],
        ["section", "p.poly", "--plane"],
        ["nope", "p.poly"],
        ["--pretty", "lattice", "p.poly"],
        [],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_parse_as_the_full_parser(self, argv, monkeypatch):
        """`run` calls the handler in the `_SUBCOMMANDS` entry of the command
        it parsed, with the full parser's namespace, which holds no handler."""
        recorded = []
        for name, (summary, add_arguments, _) in cli._SUBCOMMANDS.items():
            def record(ns, name=name):
                recorded.append((name, vars(ns)))
                return {}, 0

            monkeypatch.setitem(cli._SUBCOMMANDS, name, (summary, add_arguments, record))
        result = run(argv)
        try:
            full = vars(build_parser().parse_args(argv))
        except CliError as exc:
            assert (result.error, recorded) == (str(exc), [])
        else:
            assert (result.command, recorded) == (argv[0], [(argv[0], full)])
            assert "handler" not in full

    def test_builds_only_the_named_subparser(self, monkeypatch):
        built = []
        for name, (summary, add_arguments, handler) in cli._SUBCOMMANDS.items():
            def recorded(parser, name=name, add_arguments=add_arguments):
                built.append(name)
                add_arguments(parser)

            monkeypatch.setitem(cli._SUBCOMMANDS, name, (summary, recorded, handler))
        run(["verify-theorem", "p.poly", "--k", "1"])
        assert built == ["verify-theorem"]
        built.clear()
        run(["nope", "p.poly"])
        assert built == list(cli._SUBCOMMANDS)

    @pytest.mark.parametrize(
        "argv", [["-h"], ["lattice", "--help"], ["gen", "-h"], ["section", "p.poly", "--he"]]
    )
    def test_help_is_the_full_parsers(self, argv, capsys):
        with pytest.raises(SystemExit) as full_exit:
            build_parser().parse_args(argv)
        full = capsys.readouterr().out
        with pytest.raises(SystemExit) as own_exit:
            main(argv)
        assert (own_exit.value.code, capsys.readouterr().out) == (full_exit.value.code, full)
        assert full.startswith("usage: facelab")


class TestLattice:
    def test_cube3(self, cube3_file):
        doc, code = invoke("lattice", cube3_file)
        assert code == 0
        check_output(doc, "lattice")
        assert doc["output"]["f_vector"] == [8, 12, 6]
        ids = {f["id"] for f in doc["output"]["faces"]}
        assert "empty" in ids and "v0-v1-v2-v3" in ids

    def test_missing_file(self):
        doc, code = invoke("lattice", "/nonexistent/p.poly")
        assert code == 2 and doc["status"] == "error"

    def test_non_ascii_digits_are_refused(self, tmp_path):
        # The unit square with its 1s in Arabic-Indic digits.
        path = tmp_path / "square.poly"
        path.write_text("polytope 2 4\n0 0\n١ 0\n0 ١\n١ ١\n", encoding="utf-8")
        doc, code = invoke("lattice", str(path))
        assert code == 2 and doc["status"] == "error"
        assert doc["error"].startswith("row 2: invalid rational literal")

    def test_non_utf8_file_is_refused(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_bytes(b"polytope 2 3\n0 0\n1 0\n0 \xff\n")
        doc, code = invoke("lattice", str(path))
        assert code == 2 and doc["status"] == "error"
        assert doc["error"] == "not UTF-8: invalid byte at offset 23"
        proc = subprocess.run(
            [sys.executable, "-m", "facelab", "lattice", str(path)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
        )
        assert (proc.returncode, proc.stderr) == (2, b"")
        assert json.loads(proc.stdout) == doc

    @pytest.mark.parametrize(
        "text, error",
        [
            ("polytope 1 2\n0\n" + "7" * 5001, "row 2: invalid rational literal '777"),
            ("polytope 1 2\n0\n1/" + "7" * 5001, "row 2: invalid rational literal '1/777"),
            ("polytope " + "1" * 5001 + " 2\n0\n1", "bad header: dimensions too large"),
        ],
        ids=["coordinate", "denominator", "header"],
    )
    def test_overlong_integers_are_refused(self, tmp_path, text, error):
        # Past sys.get_int_max_str_digits(), int() refuses a digit string.
        path = tmp_path / "long.poly"
        path.write_text(text, encoding="utf-8")
        doc, code = invoke("lattice", str(path))
        assert code == 2 and doc["status"] == "error"
        assert doc["error"].startswith(error)

    def test_byte_order_mark_is_skipped(self, cube3_file, tmp_path):
        plain = Path(cube3_file).read_bytes()
        assert not plain.startswith(b"\xef\xbb\xbf")
        marked = tmp_path / "marked.poly"
        marked.write_bytes(b"\xef\xbb\xbf" + plain)
        assert load_polytope(str(marked)) == load_polytope(cube3_file)
        doc, code = invoke("lattice", str(marked))
        assert code == 0 and doc["inputs"]["file"] == str(marked)
        doc["inputs"]["file"] = cube3_file
        assert doc == invoke("lattice", cube3_file)[0]


class TestHypergraph:
    def test_cube3_k1(self, cube3_file):
        doc, code = invoke("hypergraph", cube3_file, "--k", "1")
        assert code == 0
        check_output(doc, "hypergraph")
        out = doc["output"]
        assert len(out["nodes"]) == 12 and len(out["hyperedges"]) == 6

    def test_k_out_of_range(self, cube3_file):
        doc, code = invoke("hypergraph", cube3_file, "--k", "7")
        assert code == 2 and doc["status"] == "error"


class TestConnectivity:
    def test_default_cap_is_dim_minus_k(self, cube3_file):
        doc, code = invoke("connectivity", cube3_file, "--k", "1")
        assert code == 0
        check_output(doc, "connectivity")
        out = doc["output"]
        assert out["cap"] == 2 and out["alpha"] == 2 and out["capped"] is True
        assert out["witness"] is None

    def test_witness_flag(self, cube3_file):
        doc, code = invoke(
            "connectivity", cube3_file, "--k", "1", "--cap", "3", "--witness"
        )
        assert code == 0
        out = doc["output"]
        assert out["alpha"] == 2 and out["capped"] is False
        assert out["witness"]["removed"] == ["v0-v1", "v0-v2"]

    def test_witness_omitted_without_flag(self, cube3_file):
        doc, code = invoke("connectivity", cube3_file, "--k", "1", "--cap", "3")
        assert out_is_null_witness(doc)


def out_is_null_witness(doc) -> bool:
    return doc["output"]["witness"] is None and doc["output"]["alpha"] == 2


class TestRidgePath:
    def test_verified_path(self, cube3_file):
        doc, code = invoke(
            "ridge-path", cube3_file, "--k", "2",
            "--blocked", "v0-v1-v4-v5,v2-v3-v6-v7",
            "--from", "v0-v1-v2-v3", "--to", "v4-v5-v6-v7", "--verify",
        )
        assert code == 0
        check_output(doc, "ridge_path")
        out = doc["output"]
        assert out["verified"] is True and out["depth"] == 1
        assert out["path"][0] == "v0-v1-v2-v3" and out["path"][-1] == "v4-v5-v6-v7"
        assert len(out["ridges"]) == len(out["path"]) - 1
        assert doc["inputs"]["from"] == "v0-v1-v2-v3"

    def test_unverified_skips_check(self, cube3_file):
        doc, code = invoke(
            "ridge-path", cube3_file, "--k", "1", "--blocked", "",
            "--from", "v0-v1", "--to", "v6-v7",
        )
        assert code == 0
        assert doc["output"]["verified"] is None

    def test_blocked_endpoint_is_error(self, cube3_file):
        doc, code = invoke(
            "ridge-path", cube3_file, "--k", "1", "--blocked", "v0-v1",
            "--from", "v0-v1", "--to", "v6-v7",
        )
        assert code == 2


class TestDual:
    def test_cube3(self, cube3_file, tmp_path):
        out_path = str(tmp_path / "dual.poly")
        doc, code = invoke("dual", cube3_file, "--out", out_path)
        assert code == 0
        check_output(doc, "dual")
        assert doc["output"]["n_vertices"] == 6
        assert doc["output"]["file"] == out_path
        inner, code = invoke("lattice", out_path)
        assert inner["output"]["f_vector"] == [6, 12, 8]

    def test_no_out_file(self, cube3_file):
        doc, code = invoke("dual", cube3_file)
        assert code == 0 and doc["output"]["file"] is None


class TestSection:
    def test_cube3_slice(self, cube3_file):
        doc, code = invoke("section", cube3_file, "--plane", "1,0,0;1/2")
        assert code == 0
        check_output(doc, "section")
        out = doc["output"]
        assert out["slice"]["f_vector"] == [4, 4]
        assert ["v0-v1-v2-v3-v4-v5-v6-v7", "v0-v1-v2-v3"] in out["phi"]

    def test_vertex_on_plane(self, cube3_file):
        doc, code = invoke("section", cube3_file, "--plane", "1,0,0;0")
        assert code == 2 and doc["status"] == "error"

    def test_overlong_offset_is_refused(self, cube3_file):
        doc, code = invoke("section", cube3_file, "--plane", "1,0,0;1/" + "7" * 5001)
        assert code == 2 and doc["status"] == "error"
        assert doc["error"].startswith("malformed hyperplane '1,0,0;1/777")
        assert doc["error"].endswith(f"(more than {sys.get_int_max_str_digits()} digits)")


class TestVerifyTheorem:
    def test_single_k(self, cube3_file):
        doc, code = invoke("verify-theorem", cube3_file, "--k", "1")
        rows = doc["output"]["results"]
        assert len(rows) == 1 and rows[0]["k"] == 1 and code == 0

    def test_default_is_all_k(self, cube3_file):
        doc, code = invoke("verify-theorem", cube3_file)
        assert code == 0
        check_output(doc, "verify_theorem")
        rows = doc["output"]["results"]
        assert [r["k"] for r in rows] == [0, 1, 2]
        assert all(r["pass"] for r in rows)
        for r in rows:
            assert r["bound"] == 3 - r["k"]

    def test_all_k_echo_matches_the_ks_run(self, cube3_file):
        # "k": null in the echo is what says every k ran.
        for argv in [(), ("--k", "1"), ("--k", "0")]:
            doc, _ = invoke("verify-theorem", cube3_file, *argv)
            ks = [r["k"] for r in doc["output"]["results"]]
            assert set(doc["inputs"]) == {"file", "k"}, argv
            assert (doc["inputs"]["k"] is None) == (ks == [0, 1, 2]), argv


class TestEnvelope:
    def test_reruns_are_byte_identical(self, cube3_file):
        a = run(["lattice", cube3_file]).render()
        b = run(["lattice", cube3_file]).render()
        assert a == b

    def test_error_envelope_has_no_output(self):
        doc, code = invoke("lattice", "/nonexistent/p.poly")
        assert "output" not in doc and doc["error"]

    def test_missing_subcommand(self):
        doc, code = invoke()
        assert code == 2 and doc["status"] == "error"

    def test_unknown_command_is_echoed_once(self):
        # A word that names no command stays in the argv echo alone: the
        # envelope names no command, and the diagnostic quotes an excerpt.
        word = "x" * 5000
        doc, code = invoke(word, "cube3.poly")
        assert code == 2 and doc["command"] is None
        assert doc["inputs"] == {"argv": [word, "cube3.poly"]}
        assert run([word, "cube3.poly"]).render().count(word) == 1

    def test_schema_names_the_commands(self):
        ok, error = (branch["properties"]["command"]["enum"] for branch in ENVELOPE.schema["oneOf"])
        assert ok == list(cli._SUBCOMMANDS) and error == [*ok, None]

    def test_main_prints_and_returns(self, cube3_file, capsys):
        code = main(["lattice", cube3_file])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["status"] == "ok"


# A token alphabet for whole command lines.  `gen` and `--out` would write
# files, and `-h`, `--help` or an abbreviation of it exits the process, so it
# leaves them out; its polytopes are small, so any cap it can name stays fast.
FILES = [str(GOLDEN / name) for name in ("cube3.poly", "segment.poly", "missing.poly")]
VALUES = ["0", "1", "2", "-1", "one", "v0", "v0-v1", "v0-v1-v2-v3", "1,0,0;1/2", "1;1/2"]
# Per command: its required flags, its optional flags that take a value, and
# its switches.
FLAGS = {
    "lattice": ([], [], []),
    "hypergraph": (["--k"], [], []),
    "connectivity": (["--k"], ["--cap"], ["--witness"]),
    "ridge-path": (["--k", "--from", "--to"], ["--blocked", "--seed"], ["--verify"]),
    "dual": ([], [], []),
    "section": (["--plane"], [], []),
    "verify-theorem": ([], ["--k"], []),
}
TOKENS = sorted(
    {*FLAGS, *FILES, *VALUES, "--pretty", "--family", "--dim", "--n", "--bound"}
    | {flag for groups in FLAGS.values() for group in groups for flag in group}
)


@st.composite
def _request(draw, command: str) -> list[str]:
    """The command, a file, a value for each required flag, and some of its
    optional flags and switches."""
    required, optional, switches = FLAGS[command]
    argv = [command, draw(st.sampled_from(FILES))]
    if optional:
        required = required + draw(st.lists(st.sampled_from(optional), max_size=2))
    for flag in required:
        argv += [flag, draw(st.sampled_from(VALUES))]
    if switches:
        argv += draw(st.lists(st.sampled_from(switches), max_size=2))
    return argv


# Half the draws are one command's own request, so that many parse and reach
# a handler; the other half are any tokens at all.
ARGVS = st.one_of(
    st.sampled_from(sorted(FLAGS)).flatmap(_request),
    st.lists(st.sampled_from(TOKENS), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(argv=ARGVS)
def test_run_never_raises(argv):
    """Every drawn command line gets a valid envelope from one parser, and
    exactly the error envelopes exit with code 2.  An ok envelope names
    argv[0]."""
    built = []

    def counted(*args):
        built.append(args)
        return build_parser(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", counted)
        result = run(argv)
    doc = json.loads(result.render())
    assert len(built) == 1
    assert doc["status"] == "error" or doc["command"] == argv[0]
    ENVELOPE.validate(doc)
    assert (doc["status"] == "error") == (result.exit_code == 2)


# Polytope-file tokens: short integers and fractions, and digit runs on both
# sides of the 4,300 digits int() takes from a string by default.
DIGIT_RUNS = st.builds(str.__mul__, st.sampled_from("123456789"), st.integers(4290, 4310))
FILE_TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-3/4", "x", "polytope"]),
    DIGIT_RUNS,
    DIGIT_RUNS.map("1/".__add__),
)


@st.composite
def _polytope_text(draw) -> bytes:
    """n rows of d tokens, 1 <= d, n <= 3, under a 'polytope d n' header;
    at times a header token is drawn from FILE_TOKENS instead."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    header = [draw(st.one_of(st.just(str(x)), st.just(str(x)), FILE_TOKENS)) for x in (d, n)]
    rows = draw(st.lists(st.lists(FILE_TOKENS, min_size=d, max_size=d), min_size=n, max_size=n))
    lines = [" ".join(["polytope", *header]), *(" ".join(row) for row in rows)]
    return "\n".join(lines).encode()


@pytest.fixture(scope="module")
def drawn_file(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("drawn") / "drawn.poly"


@settings(max_examples=200, deadline=None)
@given(contents=st.one_of(st.binary(max_size=64), _polytope_text()))
def test_any_polytope_file_gets_an_envelope(drawn_file, contents):
    """Every drawn file's bytes, valid UTF-8 or not, with digit runs past
    int()'s limit or not, get a valid envelope, and exactly the error
    envelopes exit with code 2."""
    drawn_file.write_bytes(contents)
    result = run(["lattice", str(drawn_file)])
    doc = json.loads(result.render())
    ENVELOPE.validate(doc)
    assert (doc["status"] == "error") == (result.exit_code == 2)


# Characters a token keeps whole in every slot below: no whitespace, which
# would split a file line, and no ',' or ';', which split --plane and --blocked.
TOKEN_CHARS = st.characters(exclude_categories=("Cs",)).filter(
    lambda c: not c.isspace() and c not in ",;"
)


@st.composite
def _long_token(draw) -> str:
    """A drawn piece repeated to a drawn length of 1 to 10,000 chars."""
    fixed = st.sampled_from(["7", "0", "v0", "-"])
    piece = draw(st.one_of(fixed, st.text(TOKEN_CHARS, min_size=1, max_size=6)))
    n = draw(st.integers(1, 10_000))
    return (piece * n)[:n]


def _slot_requests(token: str, directory: Path) -> dict[str, list[str]]:
    """One request per slot with the token in it, each refused whatever the
    token is: a valid coordinate makes two equal vertices, a valid plane has
    the wrong dimension, a valid --from leaves --to unknown, a blocked item
    is listed twice, and a valid --k meets a polytope with no facets."""
    files = {
        "coordinate": f"polytope 1 2\n{token}\n{token}\n",
        "header": f"polytope 1 2 {token}\n0\n1\n",
        "segment": "polytope 1 2\n0\n1\n",
        "point": "polytope 1 1\n0\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = str(directory / f"{name}.poly")
        Path(paths[name]).write_text(text, encoding="utf-8")
    segment = paths["segment"]
    return {
        "coordinate": ["lattice", paths["coordinate"]],
        "header": ["lattice", paths["header"]],
        "normal": ["section", segment, f"--plane={token},0;1"],
        "offset": ["section", segment, f"--plane=1,0;{token}"],
        "from": ["ridge-path", segment, "--k=0", f"--from={token}", "--to=x"],
        "blocked": [
            "ridge-path", segment, "--k=2", f"--blocked={token},{token}", "--from=v0", "--to=v1",
        ],
        "k": ["verify-theorem", paths["point"], f"--k={token}"],
    }


@pytest.fixture(scope="module")
def slot_directory(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("slots")


@settings(max_examples=60, deadline=None)
@given(token=_long_token())
def test_long_tokens_get_bounded_diagnostics(slot_directory, token):
    """A token of up to 10,000 chars in any slot of a request is refused
    with a diagnostic of at most 1,000 chars: it quotes a bounded excerpt."""
    for slot, argv in _slot_requests(token, slot_directory).items():
        result = run(argv)
        doc = json.loads(result.render())
        assert (result.exit_code, doc["status"]) == (2, "error"), slot
        assert len(doc["error"]) <= 1000, slot


ROOT = Path(__file__).resolve().parents[1]


def _script_target() -> str:
    """The `facelab` script's `module:function`, as pyproject.toml names it."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^facelab = "(.+)"$', text, re.MULTILINE).group(1)


# The two ways a request gets a process: `python -m facelab`, and the
# script's target called the way the installed script wrapper calls it.
LAUNCHERS = {
    "module": ["-m", "facelab"],
    "script": [
        "-c",
        "import sys; from importlib import import_module; "
        "m, f = sys.argv.pop(1).split(':'); getattr(import_module(m), f)()",
        _script_target(),
    ],
}


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize(
    "case, argv, code",
    [
        ("cube3.lattice", ["lattice", "cube3.poly"], 0),
        (
            "cube3.ridge_path_negative_k",
            ["ridge-path", "cube3.poly", "--k", "-1", "--from", "v0", "--to", "v7"],
            2,
        ),
    ],
)
def test_process_entry_prints_the_golden_bytes(launcher, case, argv, code):
    proc = subprocess.run(
        [sys.executable, *LAUNCHERS[launcher], *argv],
        cwd=GOLDEN,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
    )
    assert (proc.stdout, proc.stderr) == ((GOLDEN / f"{case}.out").read_bytes(), b"")
    assert proc.returncode == code


def test_script_target_is_the_module_entry():
    from facelab import __main__ as entry

    module, _, name = _script_target().partition(":")
    assert getattr(import_module(module), name) is entry.main
