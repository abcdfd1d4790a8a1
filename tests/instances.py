"""Shared, memoized polytope instances so expensive lattices build once.

A lattice here is always `polytope(...).lattice`, the very object the
section and ridge-path code reads, not a second copy built beside it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

from facelab.generators import GeneratorSpec, generate
from facelab.geometry import QVector
from facelab.polytope import FaceLattice, VPolytope, parse_polytope

GOLDEN = Path(__file__).resolve().parent / "golden"

# The standard grid: all fixed families at desk scale.
FAMILY_GRID = (
    [("simplex", d, None) for d in (2, 3, 4)]
    + [("cube", d, None) for d in (2, 3, 4)]
    + [("cross", d, None) for d in (2, 3, 4)]
    + [("cyclic", 3, 6), ("cyclic", 4, 7)]
)


def _hull(points) -> VPolytope:
    """The polytope on these integer points, each checked to be a vertex."""
    return VPolytope.from_points([QVector.of(v) for v in points])


def hypersimplex(n: int, k: int) -> VPolytope:
    """Delta(n, k): the 0/1 vectors with k ones, the last coordinate dropped."""
    return _hull(v[:-1] for v in product((0, 1), repeat=n) if sum(v) == k)


def permutahedron(n: int) -> VPolytope:
    """Pi_n: the permutations of (1, ..., n), the last coordinate dropped."""
    return _hull(v[:-1] for v in permutations(range(1, n + 1)))


def cell24() -> VPolytope:
    """The 24-cell: the vectors with two entries +-1 and two entries 0."""
    return _hull(v for v in product((-1, 0, 1), repeat=4) if sum(map(abs, v)) == 2)


def birkhoff(n: int) -> VPolytope:
    """B_n: the n x n permutation matrices, cut to their top-left
    (n-1) x (n-1) block."""
    return _hull(
        [int(perm[i] == j) for i in range(n - 1) for j in range(n - 1)]
        for perm in permutations(range(n))
    )


# Classical families with large groups, most of them neither simple nor
# simplicial (Ziegler 1995, Lecture 0).  Each is projected to full dimension
# by dropping coordinates, an affine map injective on the affine hull, so
# the face lattice is unchanged.  Name: (constructor, its f-vector).
CLASSICAL = {
    "hypersimplex(5,2)": (lambda: hypersimplex(5, 2), (10, 30, 30, 10)),
    "hypersimplex(6,2)": (lambda: hypersimplex(6, 2), (15, 60, 80, 45, 12)),
    "hypersimplex(6,3)": (lambda: hypersimplex(6, 3), (20, 90, 120, 60, 12)),
    "permutahedron(4)": (lambda: permutahedron(4), (24, 36, 14)),
    "permutahedron(5)": (lambda: permutahedron(5), (120, 240, 150, 30)),
    "24-cell": (cell24, (24, 96, 96, 24)),
    "birkhoff(3)": (lambda: birkhoff(3), (6, 15, 18, 9)),
    "birkhoff(4)": (lambda: birkhoff(4), (24, 240, 978, 1968, 2176, 1392, 528, 120, 16)),
}


@lru_cache(maxsize=None)
def classical(name: str) -> VPolytope:
    return CLASSICAL[name][0]()


@lru_cache(maxsize=None)
def polytope(family: str, dim: int, n: int | None = None, seed: int | None = None) -> VPolytope:
    return generate(GeneratorSpec(family=family, dim=dim, n=n, seed=seed))


def lattice_of(family: str, dim: int, n: int | None = None, seed: int | None = None) -> FaceLattice:
    return polytope(family, dim, n, seed).lattice


def golden_random_polytopes() -> list[VPolytope]:
    """The 25 pinned `random_polytope` texts, parsed."""
    text = (GOLDEN / "random_polytopes.txt").read_text(encoding="utf-8")
    blocks = text.split("# random_polytope")[1:]
    return [parse_polytope(block.split("\n", 1)[1]) for block in blocks]


def instance(
    family: str, dim: int, n: int | None = None, seed: int | None = None
) -> tuple[VPolytope, FaceLattice]:
    p = polytope(family, dim, n, seed)
    return p, p.lattice


def random_cutting_plane(p: VPolytope, rng, max_tries: int = 500):
    """A hyperplane that strictly separates the vertex set and avoids every
    vertex, found by seeded rejection sampling.  Deterministic per rng state."""
    from facelab.geometry import Hyperplane
    from oracles import rational_points, side

    d = p.ambient_dim
    points = rational_points(p)
    for _ in range(max_tries):
        normal = [rng.randint(-5, 5) for _ in range(d)]
        if not any(normal):
            continue
        i, j = rng.sample(range(p.n_vertices), 2)
        offset = sum(a * (x + y) for a, x, y in zip(normal, points[i], points[j])) / 2
        h = Hyperplane.of(normal, offset)
        sides = {side(h, v) for v in points}
        if 0 in sides or sides != {-1, 1}:
            continue
        return h
    raise RuntimeError("no cutting plane found; loosen the sampler")


def section_battery():
    """The 100 seeded (polytope, cutting plane) pairs of acceptance
    criterion 3: 60 random 3-polytopes and 40 random 4-polytopes."""
    rng = random.Random(2026)
    for trial in range(100):
        if trial < 60:
            d, n = 3, 6 + trial % 3
        else:
            d, n = 4, 6 + trial % 2
        p = polytope("random", d, n=n, seed=trial)
        yield p, random_cutting_plane(p, rng)
