"""Exact polytope face lattices, face-hypergraph connectivity, ridge paths.

The package root re-exports the names the README's library example uses;
everything else is imported from its module.  Each name loads its module on
first access, so importing the package loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each re-exported name and the module that defines it.
_EXPORTS = {
    "BlockedSet": "ridgepath",
    "GeneratorSpec": "generators",
    "build_hypergraph": "hypergraph",
    "generate": "generators",
    "solve_ridge_path": "ridgepath",
    "strong_connectivity": "hypergraph",
    "verify_ridge_path": "ridgepath",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
