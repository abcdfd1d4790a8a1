"""Exact geometry on integer rows: points, hyperplanes, ranks.

A point is its primitive homogeneous row (x0, x) with x0 > 0, standing for
x / x0, and a hyperplane a.x = c is its primitive row (-c, a); nothing in
this package touches floating point.  Rationals meet the rows only at the
edge, as reduced integer pairs: `parse_rational` and `QVector.of` on the way
in, `format_rational` on the way out.  Elimination is fraction-free (Bareiss
1968), so every division is exact.  All predicates (sidedness, rank) are
therefore exact sign tests, which the rest of the library relies on.
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)

_QUOTE_LIMIT = 40


class FacelabError(ValueError):
    """Base of every library error; the CLI reports each with exit code 2."""


class GeometryError(FacelabError):
    """A geometric precondition was violated."""


class Rational(NamedTuple):
    """An exact rational as its reduced integer pair, denominator > 0.

    It is a pair, not a number: as a tuple it is always truthy and orders
    lexicographically, so test its `numerator` for zero.
    """

    numerator: int
    denominator: int


def quote(text: str) -> str:
    """User text as a diagnostic quotes it: its repr, or past _QUOTE_LIMIT
    chars the repr of its first _QUOTE_LIMIT and its full length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} chars)"


def parse_rational(text: str) -> Rational:
    """Parse the text syntax ``p/q`` or ``p`` into an exact rational."""
    token = text.strip()
    match = _RATIONAL_RE.match(token)
    if not match:
        raise GeometryError(f"invalid rational literal {quote(token)} (expected 'p' or 'p/q')")
    try:
        numerator, denominator = int(match[1]), int(match[2] or 1)
    except ValueError:  # longer than int() takes from a string
        limit = f"more than {sys.get_int_max_str_digits()} digits"
        raise GeometryError(f"invalid rational literal {quote(token)} ({limit})") from None
    if not denominator:
        raise GeometryError(f"invalid rational literal {quote(token)} (zero denominator)")
    g = gcd(numerator, denominator)
    return Rational(numerator // g, denominator // g)


def format_rational(numerator: int, denominator: int) -> str:
    """Render numerator / denominator, denominator > 0, as reduced ``p/q``, or
    ``p`` when the reduced denominator is one."""
    g = gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"


def format_point(row: Sequence[int]) -> list[str]:
    """The coordinates x / x0 of a homogeneous row (x0, x), rendered."""
    return [format_rational(x, row[0]) for x in row[1:]]


def _integer_row(values: Iterable) -> tuple[int, ...]:
    """Exact rationals scaled by the lcm of their denominators.

    A value is exact when it has an integer `numerator` and a positive
    integer `denominator`, as ints, `Rational`s and `fractions.Fraction`s
    do.  Floats, decimals and strings are refused: a float's binary value is
    not the rational its text shows.
    """
    pairs = []
    for v in values:
        p, q = getattr(v, "numerator", None), getattr(v, "denominator", None)
        if not (isinstance(p, int) and isinstance(q, int) and q > 0):
            raise GeometryError(f"{v!r} is not an exact rational (an int or p/q)")
        pairs.append((p, q))
    scale = lcm(*(q for _, q in pairs))
    return tuple(p * (scale // q) for p, q in pairs)


class QVector(NamedTuple):
    """A point as its primitive homogeneous integer row (x0, x), x0 > 0,
    standing for x / x0."""

    row: tuple[int, ...]

    @classmethod
    def of(cls, values: Iterable) -> QVector:
        """The point with the given exact rational coordinates; a float, a
        decimal or a string raises GeometryError.

        The row is (1, x) times the lcm of the coordinate denominators, made
        primitive in case a coordinate came unreduced.
        """
        row = _integer_row((1, *values))
        if len(row) == 1:
            raise GeometryError("a vector needs at least one coordinate")
        return cls(primitive(row))


class CheckedRecord:
    """Base of the named tuples whose constructor checks their fields; list
    it before the fields class.  `_replace` builds through `_make`, so this
    routes it through the checks too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _HyperplaneFields(NamedTuple):
    row: tuple[int, ...]


class Hyperplane(CheckedRecord, _HyperplaneFields):
    """The set ``{x : a.x = c}`` as its primitive integer row (-c, a); a must be
    nonzero.

    The row's dot product with a point's row (x0, x) is x0 times a positive
    multiple of a.x/x0 - c, so its sign is the point's side of the plane.
    Dividing by the positive gcd keeps every point's side.
    """

    __slots__ = ()

    def __new__(cls, row: Sequence[int]) -> Hyperplane:
        if not any(row[1:]):
            raise GeometryError("hyperplane normal must be nonzero")
        return super().__new__(cls, primitive(row))

    @classmethod
    def of(cls, normal: Iterable, offset) -> Hyperplane:
        """The hyperplane normal . x = offset, from exact rationals."""
        c, *a = _integer_row((offset, *normal))
        return cls((-c, *a))

    @property
    def dim(self) -> int:
        return len(self.row) - 1


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """The dot product of two integer vectors, exact."""
    return sum(map(mul, u, v))


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


def interior_point(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """A relative-interior point of the hull of points given as homogeneous
    rows, as one: the primitive sum of the rows.

    The sum (sum x0, sum x) stands for the convex combination of the points
    x / x0 with weights x0 / sum x0, all positive, so it lies in the relative
    interior; when the rows share one x0 it is the average.
    """
    if not rows:
        raise GeometryError("interior point of an empty point list")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise GeometryError("interior point over points of mixed dimension")
    return primitive([sum(column) for column in zip(*rows)])
