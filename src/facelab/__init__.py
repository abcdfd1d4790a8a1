"""Exact polytope face lattices, face-hypergraph connectivity, ridge paths.

The package root re-exports the names the README's library example uses;
everything else is imported from its module.  The generator names load
`facelab.generators` on first access, so importing the package (and the CLI,
which needs it only for `gen`) does not.
"""

from .hypergraph import build_hypergraph, strong_connectivity
from .ridgepath import BlockedSet, solve_ridge_path, verify_ridge_path

__version__ = "0.1.0"

__all__ = [
    "BlockedSet",
    "GeneratorSpec",
    "build_hypergraph",
    "generate",
    "solve_ridge_path",
    "strong_connectivity",
    "verify_ridge_path",
]


def __getattr__(name: str):
    if name in ("GeneratorSpec", "generate"):
        from . import generators

        return getattr(generators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
