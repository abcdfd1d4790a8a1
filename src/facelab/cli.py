"""Command-line front end with stable machine-readable JSON output.

Every invocation prints one JSON envelope {command, inputs, output, status}
on stdout; errors replace output with a one-line diagnostic.  Identical
invocations produce byte-identical output.  Exit codes: 0 success (and, for
verify-theorem / --verify, the certified outcome), 1 a certification or
verification failure, 2 malformed input or a violated precondition.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from typing import NamedTuple

from .geometry import FacelabError, Hyperplane, format_point, format_rational
from .polytope import (
    VPolytope,
    face_id,
    indices_of,
    load_polytope,
    polar_dual,
    save_polytope,
)


def _lazy(name: str):
    """The submodule `name`, registered now and run on its first attribute read."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# Registered, not run: perfbench/trace_entry.py wraps only modules in sys.modules after
# `import facelab.cli`.  Plain local imports once --stats replaces it (ROADMAP item 2).
hypergraph = _lazy("hypergraph")
section = _lazy("section")
ridgepath = _lazy("ridgepath")


class CliError(FacelabError):
    """Bad command line."""


_HANDLED_ERRORS = (FacelabError, OSError)

# argparse quotes a bad argument whole; its messages are cut past this many chars.
_MESSAGE_LIMIT = 200

_INPUT_KEY_RENAMES = {"from_id": "from", "to_id": "to"}


class CommandResult(NamedTuple):
    command: str | None
    inputs: dict
    output: dict | None = None
    error: str | None = None
    exit_code: int = 0

    def to_json_dict(self) -> dict:
        """The envelope; its status is "ok" exactly when there is no error."""
        if self.error is None:
            result = {"output": self.output, "status": "ok"}
        else:
            result = {"error": self.error, "status": "error"}
        return {"command": self.command, "inputs": self.inputs, **result}

    def render(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        if len(message) > _MESSAGE_LIMIT:
            message = f"{message[:_MESSAGE_LIMIT]}... ({len(message)} chars)"
        raise CliError(message)


def _plane_json(normal, offset) -> dict:
    """A plane's ints or exact rationals, rendered."""
    return {
        "normal": [format_rational(a.numerator, a.denominator) for a in normal],
        "offset": format_rational(offset.numerator, offset.denominator),
    }


def _vertices_json(p: VPolytope) -> list[list[str]]:
    return [format_point(row) for row in p.rows]


def _cmd_gen(ns) -> tuple[dict, int]:
    # Only gen loads the generators.
    from .generators import GeneratorSpec, generate

    p = generate(
        GeneratorSpec(family=ns.family, dim=ns.dim, n=ns.n, seed=ns.seed, bound=ns.bound)
    )
    save_polytope(p, ns.out)
    return {
        "file": ns.out,
        "family": ns.family,
        "dim": p.ambient_dim,
        "n_vertices": p.n_vertices,
    }, 0


def _cmd_lattice(ns) -> tuple[dict, int]:
    return load_polytope(ns.file).lattice.to_json_dict(), 0


def _cmd_hypergraph(ns) -> tuple[dict, int]:
    hg = hypergraph.build_hypergraph(load_polytope(ns.file).lattice, ns.k)
    nodes = hg.nodes
    return {
        "k": hg.k,
        "nodes": list(nodes),
        "hyperedges": [
            {"id": hg.edge_id(edge), "nodes": [nodes[i] for i in indices_of(edge)]}
            for edge in hg.edges
        ],
    }, 0


def _cmd_connectivity(ns) -> tuple[dict, int]:
    lattice = load_polytope(ns.file).lattice
    hg = hypergraph.build_hypergraph(lattice, ns.k)
    cap = ns.cap if ns.cap is not None else lattice.dim - ns.k
    report = hypergraph.strong_connectivity(hg, cap)
    payload = report.to_json_dict()
    payload["cap"] = cap
    if not ns.witness:
        payload["witness"] = None
    return payload, 0


def _cmd_ridge_path(ns) -> tuple[dict, int]:
    p = load_polytope(ns.file)
    b = ridgepath.BlockedSet.of(ns.k, ns.blocked.split(",") if ns.blocked else [])
    result = ridgepath.solve_ridge_path(p, b, ns.from_id, ns.to_id)
    verified = None
    if ns.verify:
        verified = ridgepath.verify_ridge_path(
            p.lattice, b.k, b, result.path, ns.from_id, ns.to_id
        )
    payload = {
        "path": list(result.path.faces),
        "ridges": list(result.path.ridges),
        "verified": verified,
        "depth": result.depth,
        "hyperplanes": [_plane_json(h.row[1:], -h.row[0]) for h in result.hyperplanes],
    }
    return payload, 1 if verified is False else 0


def _cmd_dual(ns) -> tuple[dict, int]:
    p = load_polytope(ns.file)
    dual = polar_dual(p)
    if ns.out:
        save_polytope(dual, ns.out)
    return {
        "dim": dual.ambient_dim,
        "n_vertices": dual.n_vertices,
        "vertices": _vertices_json(dual),
        "file": ns.out,
    }, 0


def _cmd_section(ns) -> tuple[dict, int]:
    p = load_polytope(ns.file)
    normal, offset = section.parse_hyperplane(ns.plane)
    smap = section.section(p, Hyperplane.of(normal, offset))
    phi = sorted(smap.phi.items(), key=lambda pair: indices_of(pair[0]))
    sliced = smap.slice_polytope
    return {
        # The plane as the user gave it, each rational reduced.
        "plane": _plane_json(normal, offset),
        "slice": {
            "dim": sliced.dim,
            "n_vertices": sliced.n_vertices,
            "vertices": _vertices_json(sliced),
            "f_vector": list(sliced.lattice.f_vector),
        },
        "phi": [[face_id(b), face_id(s)] for b, s in phi],
    }, 0


def _cmd_verify_theorem(ns) -> tuple[dict, int]:
    lattice = load_polytope(ns.file).lattice
    d = lattice.dim
    ks = [ns.k] if ns.k is not None else list(range(d))
    results = []
    all_pass = True
    for k in ks:
        hg = hypergraph.build_hypergraph(lattice, k)
        bound = d - k
        # Capped at the bound, the scan reports alpha = bound exactly when it passes.
        alpha = hypergraph.strong_connectivity(hg, bound).alpha
        ok = alpha >= bound
        all_pass = all_pass and ok
        results.append({"k": k, "bound": bound, "alpha": alpha, "pass": ok})
    return {"dim": d, "results": results, "pass": all_pass}, 0 if all_pass else 1


def _gen_arguments(gen: _Parser) -> None:
    from .generators import FAMILIES

    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--dim", required=True, type=int)
    gen.add_argument("--n", type=int, default=None, help="vertex count (cyclic/random)")
    gen.add_argument("--seed", type=int, default=None, help="random family seed")
    gen.add_argument("--bound", type=int, default=None, help="random coordinate bound")
    gen.add_argument("--out", required=True, help="output polytope file")


def _file_argument(parser: _Parser) -> None:
    parser.add_argument("file")


def _hypergraph_arguments(parser: _Parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--k", required=True, type=int)


def _connectivity_arguments(connectivity: _Parser) -> None:
    connectivity.add_argument("file")
    connectivity.add_argument("--k", required=True, type=int)
    connectivity.add_argument("--cap", type=int, default=None, help="default: dim - k")
    connectivity.add_argument(
        "--witness", action="store_true", help="include a disconnection witness if found"
    )


def _ridge_path_arguments(ridge: _Parser) -> None:
    ridge.add_argument("file")
    ridge.add_argument("--k", required=True, type=int)
    ridge.add_argument(
        "--blocked", default="", help="comma-separated blocked k-face ids (may be empty)"
    )
    ridge.add_argument("--from", dest="from_id", required=True, metavar="FROM")
    ridge.add_argument("--to", dest="to_id", required=True, metavar="TO")
    ridge.add_argument(
        "--seed",
        type=int,
        default=0,
        help="no effect (the search is deterministic); kept while the benchmark passes it",
    )
    ridge.add_argument(
        "--verify", action="store_true", help="re-check the path against the lattice"
    )


def _dual_arguments(dual: _Parser) -> None:
    dual.add_argument("file")
    dual.add_argument("--out", default=None, help="also write the dual as a polytope file")


def _section_arguments(parser: _Parser) -> None:
    parser.add_argument("file")
    parser.add_argument(
        "--plane", required=True, help="hyperplane as 'a1,...,ad;c' with rational entries"
    )


def _verify_theorem_arguments(verify: _Parser) -> None:
    verify.add_argument("file")
    verify.add_argument("--k", type=int, default=None, help="default: every k from 0 to dim-1")


# Each command's summary, argument builder and handler, in help order.
_SUBCOMMANDS = {
    "gen": ("write a generated polytope file", _gen_arguments, _cmd_gen),
    "lattice": ("export the face lattice", _file_argument, _cmd_lattice),
    "hypergraph": ("export the k-face hypergraph", _hypergraph_arguments, _cmd_hypergraph),
    "connectivity": (
        "certify strong connectivity exhaustively",
        _connectivity_arguments,
        _cmd_connectivity,
    ),
    "ridge-path": (
        "construct a ridge path avoiding blocked faces",
        _ridge_path_arguments,
        _cmd_ridge_path,
    ),
    "dual": ("compute the polar dual", _dual_arguments, _cmd_dual),
    "section": (
        "slice by a hyperplane missing all vertices",
        _section_arguments,
        _cmd_section,
    ),
    "verify-theorem": (
        "certify the (dim - k)-connectivity bound for each requested k",
        _verify_theorem_arguments,
        _cmd_verify_theorem,
    ),
}


def build_parser(command: str | None = None) -> _Parser:
    """The full parser, or with a command name one that knows only that
    command.  Both are built here and the top level has only -h and the
    command, so for that command they give the same parse, help and errors."""
    parser = _Parser(
        prog="facelab",
        description="Exact face lattices, face-hypergraph connectivity "
        "certificates, and ridge-path construction.",
    )
    sub = parser.add_subparsers(dest="command_name", required=True, parser_class=_Parser)
    for name, (summary, add_arguments, _) in _SUBCOMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=summary))
    return parser


def run(argv: list[str]) -> CommandResult:
    """Parse and execute one invocation; never raises on bad input.

    The lookup that names the envelope's command also picks the parser,
    argv[0]'s subparser alone or the full one when argv[0] names none, and
    the handler: a parse that succeeds has named a command."""
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    inputs = {"argv": list(argv)}
    try:
        ns = build_parser(command).parse_args(argv)
        inputs = {
            _INPUT_KEY_RENAMES.get(key, key): value
            for key, value in vars(ns).items()
            if key != "command_name"
        }
        output, code = _SUBCOMMANDS[command][2](ns)
    except _HANDLED_ERRORS as exc:
        return CommandResult(command, inputs, error=str(exc), exit_code=2)
    return CommandResult(command, inputs, output, exit_code=code)


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    print(result.render())
    return result.exit_code
