"""Exact polytope face lattices, face-hypergraph connectivity, ridge paths.

Each name is imported from its module; importing the package loads no
submodule.
"""

__version__ = "0.1.0"
