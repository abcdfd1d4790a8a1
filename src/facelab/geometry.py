"""Exact rational geometry primitives: points, hyperplanes, ranks, feasibility.

Every scalar is an arbitrary-precision :class:`fractions.Fraction`; nothing in
this package touches floating point.  All predicates (sidedness, rank,
feasibility) are therefore exact sign tests, which the rest of the library
relies on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class GeometryError(ValueError):
    """A geometric precondition was violated."""


def parse_rational(text: str) -> Fraction:
    """Parse the text syntax ``p/q`` or ``p`` into an exact rational."""
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise GeometryError(f"invalid rational literal {token!r} (expected 'p' or 'p/q')")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise GeometryError(f"invalid rational literal {token!r} (zero denominator)") from None


def format_rational(value: Fraction) -> str:
    """Render a rational as ``p/q``, or ``p`` when the denominator is one."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class QVector:
    """Point or direction with exact rational coordinates; immutable."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    def __delattr__(self, name):
        raise AttributeError("QVector is immutable")

    def __reduce__(self):
        return QVector, (self.coords,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __repr__(self) -> str:
        return f"QVector(coords={self.coords!r})"

    @classmethod
    def of(cls, values: Iterable) -> QVector:
        coords = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        if not coords:
            raise GeometryError("a vector needs at least one coordinate")
        return cls(coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, index: int) -> Fraction:
        return self.coords[index]

    def _check_dim(self, other: QVector) -> None:
        if len(self.coords) != len(other.coords):
            raise GeometryError(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other: QVector) -> QVector:
        self._check_dim(other)
        return QVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: QVector) -> QVector:
        self._check_dim(other)
        return QVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> QVector:
        return QVector(tuple(-a for a in self.coords))

    def scaled(self, factor) -> QVector:
        f = factor if isinstance(factor, Fraction) else Fraction(factor)
        return QVector(tuple(a * f for a in self.coords))

    def dot(self, other: QVector) -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.coords, other.coords)), _ZERO)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


class _HyperplaneFields(NamedTuple):
    normal: QVector
    offset: Fraction


class Hyperplane(_HyperplaneFields):
    """The set ``{x : normal . x = offset}``; ``normal`` must be nonzero."""

    __slots__ = ()

    def __new__(cls, normal: QVector, offset: Fraction) -> Hyperplane:
        if normal.is_zero():
            raise GeometryError("hyperplane normal must be nonzero")
        return super().__new__(cls, normal, offset)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the checks too.
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return self.normal.dim

    def side(self, point: QVector) -> int:
        """Exact sign of ``normal . point - offset``: -1, 0, or +1."""
        if point.dim != self.normal.dim:
            raise GeometryError(
                f"dimension mismatch: point has {point.dim} coordinates, "
                f"hyperplane normal has {self.normal.dim}"
            )
        value = self.normal.dot(point) - self.offset
        return (value > 0) - (value < 0)

    def canonical(self) -> Hyperplane:
        """Scale by a positive rational so all entries are coprime integers.

        Positive scaling preserves orientation, so side() is unchanged.
        """
        entries = list(self.normal.coords) + [self.offset]
        scale = lcm(*(e.denominator for e in entries))
        ints = [int(e * scale) for e in entries]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        return Hyperplane(QVector.of(ints[:-1]), Fraction(ints[-1]))


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    # Row scaling by a positive rational does not change the rank.
    out = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row)) if row else 1
        out.append([int(v * scale) for v in row])
    return out


def pivot_columns(rows: list[list[int]]) -> list[int]:
    """Pivot columns of fraction-free (Bareiss) elimination over the integers.

    Their count is the rank; they are the lexicographically first columns
    that span the column space.
    """
    mat = [row[:] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    prev = 1
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        pivot_row = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        for r in range(rank + 1, n_rows):
            factor = mat[r][col]
            row = mat[r]
            top = mat[rank]
            for c in range(col, n_cols):
                quotient, remainder = divmod(pivot * row[c] - factor * top[c], prev)
                if remainder:
                    raise AssertionError("fraction-free elimination lost exactness")
                row[c] = quotient
        prev = pivot
        pivots.append(col)
    return pivots


def affine_chart(points: Sequence[QVector]) -> list[int]:
    """Coordinates that chart the affine hull: its difference matrix's pivot columns.

    Projecting onto them is an affine bijection from the hull onto a space of
    len(result) coordinates, so it preserves convexity, faces and vertices.
    """
    if len(points) < 2:
        return []
    base = points[0]
    diffs = [[p.coords[j] - base.coords[j] for j in range(base.dim)] for p in points[1:]]
    return pivot_columns(_integer_rows(diffs))


def affine_rank(points: Sequence[QVector]) -> int:
    """Dimension of the affine hull; -1 for the empty set, 0 for a point."""
    if not points:
        return -1
    return len(affine_chart(points))


def barycenter(points: Sequence[QVector]) -> QVector:
    """Coordinate-wise average; a relative-interior point of the hull of its inputs."""
    if not points:
        raise GeometryError("barycenter of an empty point list")
    n = Fraction(len(points))
    dim = points[0].dim
    totals = [_ZERO] * dim
    for p in points:
        if p.dim != dim:
            raise GeometryError("barycenter over points of mixed dimension")
        for j in range(dim):
            totals[j] += p.coords[j]
    return QVector(tuple(t / n for t in totals))


def segment_hyperplane_intersection(p: QVector, q: QVector, h: Hyperplane) -> QVector:
    """The unique point of segment [p, q] on h; requires a strict crossing."""
    sp = h.side(p)
    sq = h.side(q)
    if sp * sq != -1:
        raise GeometryError(
            f"segment does not strictly cross the hyperplane (sides {sp}, {sq})"
        )
    ap = h.normal.dot(p)
    aq = h.normal.dot(q)
    t = (h.offset - ap) / (aq - ap)
    return QVector(tuple(a + t * (b - a) for a, b in zip(p.coords, q.coords)))


def hyperplane_through(points: Sequence[QVector]) -> Hyperplane | None:
    """The hyperplane containing the points, when their affine span has codimension one.

    Returns None when the span's codimension is not exactly one.  Solved by
    exact row reduction of the difference system; the result is canonicalized
    to a primitive integer normal.
    """
    if not points:
        return None
    base = points[0]
    d = base.dim
    rows = [[p.coords[j] - base.coords[j] for j in range(d)] for p in points[1:]]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(d):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = _ONE / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivot_cols.append(col)
        rank += 1
    if rank != d - 1:
        return None
    free_col = next(c for c in range(d) if c not in pivot_cols)
    normal = [_ZERO] * d
    normal[free_col] = _ONE
    for r, col in enumerate(pivot_cols):
        normal[col] = -rows[r][free_col]
    a = QVector(tuple(normal))
    return Hyperplane(a, a.dot(base)).canonical()


def solve_nonnegative(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with rows . x = rhs, or None when the system is infeasible.

    Exact phase-1 simplex over rationals.  Bland's pivoting rule (smallest
    entering index, smallest basic variable on ratio ties) rules out cycling,
    so the iteration is finite without any perturbation.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        artificial = [_ZERO] * m
        artificial[i] = _ONE
        tableau.append(row + artificial + [b])
    basis = list(range(n, n + m))
    # Reduced-cost row for minimizing the artificial sum: the sum of all
    # constraint rows, with the (basic) artificial columns zeroed out.
    objective = [sum((tableau[i][j] for i in range(m)), _ZERO) for j in range(n + m + 1)]
    for j in range(n, n + m):
        objective[j] = _ZERO
    banned: set[int] = set()
    while True:
        entering = next(
            (
                j
                for j in range(n + m)
                if j not in banned and j not in basis and objective[j] > 0
            ),
            None,
        )
        if entering is None:
            break
        leaving = None
        best: Fraction | None = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return None
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [
                    a - factor * b for a, b in zip(tableau[i], tableau[leaving])
                ]
        if objective[entering] != 0:
            factor = objective[entering]
            objective = [
                a - factor * b for a, b in zip(objective, tableau[leaving])
            ]
        if basis[leaving] >= n:
            banned.add(basis[leaving])
        basis[leaving] = entering
    if objective[-1] != 0:
        return None
    solution = [_ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][-1]
    return solution

