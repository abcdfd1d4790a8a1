"""Polytope constructors: classic families plus seeded random instances.

All generators are deterministic; the random family draws integer points from
Python's Mersenne Twister (`random.Random`) seeded as documented on
`random_polytope`, so runs replicate anywhere.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd
from typing import NamedTuple

from .geometry import CheckedRecord, FacelabError, QVector, interior_point
from .polytope import PolytopeError, VPolytope


class GeneratorError(FacelabError):
    """Unsatisfiable generator request."""


_DEFAULT_BOUND = 10

# Each family's constructor, called with a checked spec.  The order is the
# CLI's --family choices.
_CONSTRUCTORS = {
    "simplex": lambda s: simplex(s.dim),
    "cube": lambda s: cube(s.dim),
    "cross": lambda s: cross_polytope(s.dim),
    "cyclic": lambda s: cyclic(s.dim, s.n),
    "random": lambda s: random_polytope(
        s.dim, s.n, s.seed or 0, _DEFAULT_BOUND if s.bound is None else s.bound
    ),
    "pyramid": lambda s: pyramid(s.dim),
    "prism": lambda s: prism(s.dim),
}
FAMILIES = tuple(_CONSTRUCTORS)


class _GeneratorSpecFields(NamedTuple):
    family: str
    dim: int
    n: int | None
    seed: int | None
    bound: int | None


class GeneratorSpec(CheckedRecord, _GeneratorSpecFields):
    """A generator family with its parameters, checked when constructed.

    This is the one place the generator rules live: each family function
    builds its own spec before it constructs anything.
    """

    __slots__ = ()

    def __new__(
        cls,
        family: str,
        dim: int,
        n: int | None = None,
        seed: int | None = None,
        bound: int | None = None,
    ) -> GeneratorSpec:
        self = super().__new__(cls, family, dim, n, seed, bound)
        if self.family not in FAMILIES:
            raise GeneratorError(
                f"unknown family {self.family!r}; choose one of {', '.join(FAMILIES)}"
            )
        if self.dim < 1:
            raise GeneratorError("dimension must be >= 1")
        # The other families' vertex counts follow from the dimension.
        if self.family in ("cyclic", "random"):
            if self.n is None:
                raise GeneratorError(f"family {self.family!r} needs a vertex count")
            if self.n < self.dim + 1:
                raise GeneratorError(
                    f"need at least dim+1 = {self.dim + 1} vertices, got {self.n}"
                )
            if self.dim == 1 and self.n != 2:
                raise GeneratorError(f"a 1-polytope has exactly 2 vertices, got {self.n}")
        elif self.n is not None:
            raise GeneratorError(f"family {self.family!r} takes no vertex count")
        if self.family == "random":
            bound = _DEFAULT_BOUND if self.bound is None else self.bound
            if bound < 1:
                raise GeneratorError("coordinate bound must be >= 1")
            if (2 * bound + 1) ** self.dim < self.n:
                raise GeneratorError("coordinate box too small for that many distinct points")
        elif self.seed is not None or self.bound is not None:
            raise GeneratorError("seed and bound apply to the random family only")
        if self.family in ("pyramid", "prism") and self.dim < 2:
            raise GeneratorError(f"family {self.family!r} needs dimension >= 2")
        return self


def generate(spec: GeneratorSpec) -> VPolytope:
    return _CONSTRUCTORS[spec.family](spec)


def simplex(d: int) -> VPolytope:
    """conv(0, e_1, ..., e_d)."""
    GeneratorSpec("simplex", d)
    points = [QVector.of([0] * d)]
    for i in range(d):
        coords = [0] * d
        coords[i] = 1
        points.append(QVector.of(coords))
    return VPolytope.from_points(points)


def cube(d: int) -> VPolytope:
    """The 0/1 cube; vertex order is lexicographic in the coordinate bits."""
    GeneratorSpec("cube", d)
    points = [QVector.of(bits) for bits in product((0, 1), repeat=d)]
    return VPolytope.from_points(points)


def cross_polytope(d: int) -> VPolytope:
    """conv(+-e_i); vertex order e_1, -e_1, e_2, -e_2, ..."""
    GeneratorSpec("cross", d)
    points = []
    for i in range(d):
        for sign in (1, -1):
            coords = [0] * d
            coords[i] = sign
            points.append(QVector.of(coords))
    return VPolytope.from_points(points)


def cyclic(d: int, n: int) -> VPolytope:
    """conv{(t, t^2, ..., t^d) : t = 1..n} on the moment curve."""
    GeneratorSpec("cyclic", d, n)
    points = [QVector.of([t**e for e in range(1, d + 1)]) for t in range(1, n + 1)]
    return VPolytope.from_points(points)


def _distinct_directions(pairs: list[list[int]]) -> bool:
    """Whether every two of these vectors in R^2 are independent: none is zero
    and no two are parallel.  Each is keyed by its primitive multiple with a
    positive first nonzero entry."""
    seen = set()
    for a, b in pairs:
        g = gcd(a, b)
        if not g:
            return False
        if (a, b) < (0, 0):
            g = -g
        key = (a // g, b // g)
        if key in seen:
            return False
        seen.add(key)
    return True


def _all_independent(vectors: list, size: int, prev: int = 1) -> bool:
    """Whether every `size` of these vectors in R^size are linearly independent.

    A subset whose first member is p is independent exactly when p is
    nonzero and the later members stay independent modulo p.  So each p in
    turn becomes a pivot row: one fraction-free (Bareiss) step reduces every
    later vector against it, which zeroes and drops p's pivot column, and
    the check recurses in R^(size-1).  prev is the previous step's pivot, so
    each division is exact and every entry stays a minor of the input.
    Along each prefix the reduction is carried down, never redone: an
    accepted set of n vectors costs C(n-1, size-2) calls, and C(n-2, size-2)
    of them are the direct test in R^2.
    """
    if size == 2:
        return _distinct_directions(vectors)
    for i in range(len(vectors) - size + 1):
        p = vectors[i]
        c = next((j for j, x in enumerate(p) if x), None)
        if c is None:
            return False
        pivot = p[c]
        kept = [(j, p[j]) for j in range(size) if j != c]
        reduced = [
            [(pivot * v[j] - v[c] * pj) // prev for j, pj in kept] for v in vectors[i + 1 :]
        ]
        if not _all_independent(reduced, size - 1, pivot):
            return False
    return True


def _in_general_position(rows: list[tuple[int, ...]], d: int) -> bool:
    # No d+1 of the points affinely dependent, that is no d+1 of their
    # homogeneous rows linearly dependent; implies full rank for n > d, and
    # n > d distinct points, as d+1 rows holding one twice are dependent.
    return _all_independent(rows, d + 1)


def random_polytope(d: int, n: int, seed: int, bound: int = _DEFAULT_BOUND) -> VPolytope:
    """n distinct integer points in [-bound, bound]^d, all vertices, general position.

    Each attempt draws a fresh batch from random.Random(seed + attempt * 1000003)
    via randint per coordinate; a batch with an affine degeneracy (coincident
    points are one) or a non-vertex point is discarded whole and redrawn.  The
    constant stride keeps attempt streams disjoint for neighboring seeds.
    """
    GeneratorSpec("random", d, n, seed, bound)
    for attempt in range(1000):
        rng = random.Random(seed + attempt * 1_000_003)
        points = [
            QVector.of([rng.randint(-bound, bound) for _ in range(d)]) for _ in range(n)
        ]
        if not _in_general_position([v.row for v in points], d):
            continue
        try:
            return VPolytope.from_points(points)
        except PolytopeError:
            continue
    raise GeneratorError(
        f"no valid sample after 1000 attempts (d={d}, n={n}, bound={bound}); "
        "try a larger bound or fewer points"
    )


def pyramid_over(base: VPolytope) -> VPolytope:
    """Apex at height 1 over the base's `interior_point`, one dimension up:
    the base's barycenter when its rows share one x0, as integer points do."""
    if base.dim != base.ambient_dim:
        raise GeneratorError("pyramid base must be full-dimensional")
    # Rows (x0, x) gain a last entry: 0 at the base, x0 (height 1) at the apex.
    apex = interior_point(base.rows)
    rows = [(*row, 0) for row in base.rows] + [(*apex, apex[0])]
    return VPolytope.from_points([QVector(row) for row in rows])


def prism_over(base: VPolytope) -> VPolytope:
    """Product of the base with a unit segment, one dimension up."""
    if base.dim != base.ambient_dim:
        raise GeneratorError("prism base must be full-dimensional")
    rows = [(*row, h * row[0]) for h in (0, 1) for row in base.rows]
    return VPolytope.from_points([QVector(row) for row in rows])


def pyramid(d: int) -> VPolytope:
    """Pyramid over the (d-1)-cube."""
    GeneratorSpec("pyramid", d)
    return pyramid_over(cube(d - 1))


def prism(d: int) -> VPolytope:
    """Prism over the (d-1)-simplex."""
    GeneratorSpec("prism", d)
    return prism_over(simplex(d - 1))
