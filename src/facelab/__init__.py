"""Exact polytope face lattices, face-hypergraph connectivity, ridge paths.

The package root re-exports the names the README's library example uses;
everything else is imported from its module.
"""

from .generators import GeneratorSpec, generate
from .hypergraph import build_hypergraph, strong_connectivity
from .polytope import face_lattice
from .ridgepath import BlockedSet, solve_ridge_path

__version__ = "0.1.0"

__all__ = [
    "BlockedSet",
    "GeneratorSpec",
    "build_hypergraph",
    "face_lattice",
    "generate",
    "solve_ridge_path",
    "strong_connectivity",
]
