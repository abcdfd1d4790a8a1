"""Exact rational geometry primitives: points, hyperplanes, ranks, feasibility.

Points and hyperplanes carry arbitrary-precision :class:`fractions.Fraction`
coordinates; nothing in this package touches floating point.  The kernels
that do the work run on integers: a point is also its primitive homogeneous
row (x0, x) with x0 > 0, and elimination and the simplex are fraction-free
(Bareiss 1968; Edmonds 1967), so every division is exact.  All predicates
(sidedness, rank, feasibility) are therefore exact sign tests, which the
rest of the library relies on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

_ZERO = Fraction(0)

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

    __slots__ = ("coords", "_row")

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

    def homogeneous(self) -> tuple[int, ...]:
        """The point as the primitive integer row (x0, x), x0 > 0, self = x / x0.

        x0 is the lcm of the coordinate denominators.  Computed once per vector.
        """
        try:
            return self._row
        except AttributeError:
            x0 = lcm(*(a.denominator for a in self.coords))
            row = (x0, *(a.numerator * (x0 // a.denominator) for a in self.coords))
            object.__setattr__(self, "_row", row)
            return row


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

    def homogeneous(self) -> tuple[int, ...]:
        """The integer row (-c, a) for a.x = c, scaled by the lcm of its denominators.

        Its dot product with a point's homogeneous row (x0, x) is x0 times a
        positive multiple of a.x/x0 - c, so its sign is the point's side of h.
        """
        entries = (-self.offset, *self.normal.coords)
        scale = lcm(*(e.denominator for e in entries))
        return tuple(e.numerator * (scale // e.denominator) for e in entries)

    def canonical(self) -> Hyperplane:
        """Scale by a positive rational so all entries are coprime integers.

        Positive scaling preserves orientation, so every point keeps its side.
        """
        return _plane_of_row(primitive(self.homogeneous()))


def _plane_of_row(row: Sequence[int]) -> Hyperplane:
    return Hyperplane(QVector.of(row[1:]), Fraction(-row[0]))


def primitive(vector: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*vector)
    return tuple(x // g for x in vector) if g > 1 else tuple(vector)


def eliminate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows.

    Returns the reduced matrix and its pivot columns, the lexicographically
    first columns that span the column space.  Row r holds pivot r, and each
    pivot column is zero but for its pivot entry.  Every pivot entry equals
    the last pivot D, so the matrix over D is the rational reduced row
    echelon form.  Each step divides by the previous pivot, and the division
    is exact: every entry stays a minor of the input.
    """
    mat = [list(row) for row in rows]
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
        top = mat[rank]
        pivot = top[col]
        for r, row in enumerate(mat):
            if r == rank:
                continue
            factor = row[col]
            # Rows below the pivot are zero left of it.
            for c in range(0 if r < rank else col, n_cols):
                quotient, remainder = divmod(pivot * row[c] - factor * top[c], prev)
                if remainder:
                    raise AssertionError("fraction-free elimination lost exactness")
                row[c] = quotient
        prev = pivot
        pivots.append(col)
    return mat, pivots


def pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """Pivot columns of integer rows; their count is the rank."""
    return eliminate(rows)[1]


def affine_chart(rows: Sequence[Sequence[int]]) -> list[int]:
    """Coordinates that chart the affine hull of points given as homogeneous rows.

    Coordinate j is in the chart when column j + 1 of the rows is a pivot:
    when it is independent, on the hull, of the constant and the earlier
    coordinates.  Projecting onto the chart is an affine bijection from the
    hull onto a space of len(result) coordinates, so it preserves convexity,
    faces and vertices.
    """
    return [c - 1 for c in pivot_columns(rows)[1:]]


def affine_rank(points: Sequence[QVector]) -> int:
    """Dimension of the affine hull; -1 for the empty set, 0 for a point.

    It is the rank of the points' homogeneous rows, less one.
    """
    return len(pivot_columns([p.homogeneous() for p in points])) - 1


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


def hyperplane_through(points: Sequence[QVector]) -> Hyperplane | None:
    """The hyperplane containing the points, when their affine span has codimension one.

    Returns None when the span's codimension is not exactly one.  The plane's
    row (-c, a) spans the null space of the points' homogeneous rows; it is
    read off their fraction-free reduction, with a positive entry on the one
    coordinate column that is not a pivot, and canonicalized to a primitive
    integer normal.
    """
    if not points:
        return None
    mat, pivots = eliminate([p.homogeneous() for p in points])
    if len(pivots) != points[0].dim:
        return None
    free = next(c for c in range(1, len(pivots) + 1) if c not in pivots)
    last = mat[len(pivots) - 1][pivots[-1]]
    sign = 1 if last > 0 else -1
    row = [0] * (len(pivots) + 1)
    row[free] = sign * last
    for r, col in enumerate(pivots):
        row[col] = -sign * mat[r][free]
    return _plane_of_row(primitive(row))


def solve_nonnegative(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with rows . x = rhs, or None when the system is infeasible.

    Exact phase-1 simplex.  Bland's pivoting rule (smallest entering index,
    smallest basic variable on ratio ties) rules out cycling, so the
    iteration is finite without any perturbation.  The system is scaled by
    the lcm of its denominators, and the tableau holds D times the rational
    tableau, D > 0 the determinant of the basis: each pivot divides by the
    previous D exactly (Edmonds 1967).  The artificial columns are not kept:
    an artificial variable starts basic and never re-enters once it leaves.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    scale = lcm(*(v.denominator for row in rows for v in row), *(b.denominator for b in rhs))
    tableau: list[list[int]] = []
    for row, b in zip(rows, rhs):
        ints = [v.numerator * (scale // v.denominator) for v in (*row, b)]
        tableau.append([-v for v in ints] if ints[-1] < 0 else ints)
    basis = list(range(n, n + m))
    # Reduced costs of minimizing the artificial sum: the sum of all rows.
    objective = [sum(column) for column in zip(*tableau)] if m else [0]
    det = 1
    while True:
        entering = next((j for j in range(n) if objective[j] > 0 and j not in basis), None)
        if entering is None:
            break
        leaving = None
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > 0:
                if leaving is None:
                    leaving, best_b, best_coeff = i, row[-1], coeff
                    continue
                # Compare the ratios row[-1] / coeff and best_b / best_coeff.
                here, there = row[-1] * best_coeff, best_b * coeff
                if here < there or (here == there and basis[i] < basis[leaving]):
                    leaving, best_b, best_coeff = i, row[-1], coeff
        if leaving is None:
            return None
        top = tableau[leaving]
        pivot = top[entering]
        for i, row in enumerate(tableau):
            if i != leaving:
                factor = row[entering]
                tableau[i] = [(pivot * a - factor * b) // det for a, b in zip(row, top)]
        factor = objective[entering]
        objective = [(pivot * a - factor * b) // det for a, b in zip(objective, top)]
        det = pivot
        basis[leaving] = entering
    if objective[-1] != 0:
        return None
    solution = [_ZERO] * n
    for row, var in zip(tableau, basis):
        if var < n:
            solution[var] = Fraction(row[-1], det)
    return solution
