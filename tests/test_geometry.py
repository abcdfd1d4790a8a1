"""Exact-arithmetic geometry kernel tests."""

from decimal import Decimal
from fractions import Fraction

import math
import sys
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facelab.geometry import (
    GeometryError,
    Hyperplane,
    QVector,
    Rational,
    format_rational,
    interior_point,
    parse_rational,
    quote,
)
from facelab.polytope import VPolytope, facets, polar_dual
from instances import FAMILY_GRID, golden_random_polytopes, polytope
from oracles import (
    affine_chart_oracle,
    affine_rank,
    affine_rank_oracle,
    hull_membership_oracle,
    hyperplane_through,
    hyperplane_through_oracle,
    rational_points,
    segment_hyperplane_intersection,
    side,
)

import random

F = Fraction


def Q(coords) -> tuple:
    """A test point: its rational coordinates."""
    return tuple(F(x) for x in coords)


def R(coords) -> tuple[int, ...]:
    """The library's row of a point."""
    return QVector.of(coords).row


def plane(normal, offset) -> Hyperplane:
    return Hyperplane.of(normal, offset)

rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=20
)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [("3/4", F(3, 4)), ("-2", F(-2)), ("7", F(7)), ("0", F(0)), ("-5/10", F(-1, 2))],
    )
    def test_parse(self, text, value):
        # The reduced pair, denominator positive.
        assert parse_rational(text) == (value.numerator, value.denominator)

    @pytest.mark.parametrize(
        "text",
        ["1.5", "3/0", "a", "1 / 2", "", "--3", "1/2/3", "\u0663", "1/\u0662", "\uff13"],
    )
    def test_parse_rejects(self, text):
        # Arabic-Indic 3, 1 over Arabic-Indic 2 and fullwidth 3 are digits to
        # str.isdigit but not the documented syntax.
        with pytest.raises(GeometryError):
            parse_rational(text)

    @pytest.mark.parametrize("template", ["{}", "-{}", "1/{}", "{}/7"])
    def test_parse_refuses_more_digits_than_int_takes(self, template):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(template.format("7" * limit)).numerator
        with pytest.raises(GeometryError, match=rf"\(more than {limit} digits\)$"):
            parse_rational(template.format("7" * (limit + 1)))

    def test_diagnostics_quote_a_bounded_excerpt(self):
        assert quote("x" * 40) == repr("x" * 40)
        assert quote("x" * 41) == repr("x" * 40) + "... (41 chars)"
        with pytest.raises(GeometryError) as caught:
            parse_rational("1/" + "7" * 9999)
        assert str(caught.value) == (
            f"invalid rational literal {'1/' + '7' * 38!r}... (10001 chars) "
            f"(more than {sys.get_int_max_str_digits()} digits)"
        )

    def test_format_is_reduced(self):
        assert format_rational(6, 4) == "3/2"
        assert format_rational(-8, 2) == "-4"
        assert format_rational(0, 1) == "0"
        assert format_rational(0, 7) == "0"
        assert format_rational(-3, 6) == "-1/2"

    @given(rationals, st.integers(min_value=1, max_value=9))
    def test_round_trip(self, q, scale):
        pair = (q.numerator, q.denominator)
        assert parse_rational(format_rational(*pair)) == pair
        assert format_rational(q.numerator * scale, q.denominator * scale) == str(q)


class TestQVector:
    @given(st.lists(rationals, min_size=1, max_size=5))
    def test_row_is_primitive_homogeneous(self, coords):
        row = QVector.of(coords).row
        assert row[0] > 0 and math.gcd(*row) == 1
        assert [F(x, row[0]) for x in row[1:]] == coords

    def test_exact_rationals_are_accepted(self):
        # ints, Fractions, parsed pairs, and an unreduced pair made primitive
        for half in (F(1, 2), parse_rational("2/4"), Rational(2, 4)):
            assert QVector.of([half, -3]).row == (2, 1, -6)
            assert Hyperplane.of([half, 1], F(1, 3)).row == (-2, 3, 6)
            assert Hyperplane.of([1, 0], half).row == (-1, 2, 0)

    @pytest.mark.parametrize(
        "value", [0.1, 0.5, 2.0, Decimal("0.5"), Decimal(3), "1/2", "3"], ids=repr
    )
    def test_floats_decimals_and_strings_are_refused(self, value):
        # A float's binary value, or a decimal's or a string's text, is not
        # taken for the rational the caller meant.
        with pytest.raises(GeometryError, match="not an exact rational"):
            QVector.of([1, value])
        with pytest.raises(GeometryError, match="not an exact rational"):
            Hyperplane.of([1, value], 0)
        with pytest.raises(GeometryError, match="not an exact rational"):
            Hyperplane.of([1, 0], value)

    def test_dim_mismatch(self):
        with pytest.raises(GeometryError):
            QVector.of([])
        with pytest.raises(GeometryError):
            interior_point([R([1, 2]), R([1, 2, 3])])

    @given(rationals, rationals, rationals)
    def test_distributivity_is_exact(self, a, b, c):
        # the entire library leans on this never drifting
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a


class TestHyperplane:
    def test_side_signs(self):
        h = plane([1, 0], F(1, 2))
        assert side(h, Q([0, 0])) == -1
        assert side(h, Q([F(1, 2), 3])) == 0
        assert side(h, Q([1, -7])) == 1
        with pytest.raises(GeometryError):
            side(h, Q([1, 2, 3]))

    def test_zero_normal_rejected(self):
        with pytest.raises(GeometryError):
            plane([0, 0], F(1))
        with pytest.raises(GeometryError):
            Hyperplane((1, 0, 0))

    def test_canonical_clears_denominators(self):
        h = plane([F(1, 2), F(-3, 4)], F(5, 4))
        assert h.row == (-5, 2, -3)
        assert Hyperplane((6, -4, 2)).row == (3, -2, 1)

    @given(st.integers(min_value=1, max_value=9), rationals, rationals)
    def test_side_invariant_under_positive_scaling(self, scale, x, y):
        h = plane([2, -3], F(1, 7))
        g = plane([2 * scale, -3 * scale], F(scale, 7))
        assert g == h == Hyperplane([scale * c for c in h.row])
        flipped = plane([-2 * scale, 3 * scale], F(-scale, 7))
        assert flipped.row == tuple(-c for c in h.row)
        p = Q([x, y])
        assert side(flipped, p) == -side(h, p)

    @given(st.lists(rationals, min_size=3, max_size=3), rationals)
    def test_plane_values_have_the_vertex_sides(self, normal, offset):
        # The library's integer sides against the Fraction reference.
        assume(any(normal))
        p = polytope("cyclic", 3, 6)
        h = plane(normal, offset)
        values = p.plane_values(h)
        assert [(x > 0) - (x < 0) for x in values] == [side(h, v) for v in rational_points(p)]


class TestAffineRank:
    def test_small_cases(self):
        assert affine_rank([]) == -1
        assert affine_rank([R([5, 5])]) == 0
        assert affine_rank([R([0, 0]), R([1, 1]), R([2, 2])]) == 1
        assert affine_rank([R([0, 0]), R([1, 0]), R([0, 1]), R([1, 1])]) == 2

    def test_moment_curve_is_full_rank(self):
        pts = [R([t, t * t, t**3]) for t in range(1, 6)]
        assert affine_rank(pts) == 3

    def test_matches_determinant_oracle_on_random_sets(self):
        rng = random.Random(11)
        for _ in range(80):
            d = rng.choice([2, 3, 4])
            pts = [Q([rng.randint(-3, 3) for _ in range(d)]) for _ in range(rng.randint(1, d + 2))]
            assert affine_rank([R(p) for p in pts]) == affine_rank_oracle(pts)

    @given(st.data())
    @settings(max_examples=40)
    def test_translation_and_permutation_invariant(self, data):
        d = data.draw(st.integers(min_value=2, max_value=3))
        pts = data.draw(
            st.lists(
                st.tuples(*[st.integers(min_value=-4, max_value=4)] * d),
                min_size=1,
                max_size=5,
            )
        )
        shift = data.draw(st.tuples(*[st.integers(min_value=-3, max_value=3)] * d))
        perm = data.draw(st.permutations(range(len(pts))))
        r = affine_rank([R(p) for p in pts])
        assert affine_rank([R([a + b for a, b in zip(p, shift)]) for p in pts]) == r
        assert affine_rank([R(pts[i]) for i in perm]) == r


def assert_interior_points_are_relatively_interior(p: VPolytope) -> None:
    """`interior_point` of each nonempty face's rows is tight on exactly the
    facets that contain the face and strictly inside every other facet."""
    planes = facets(p)
    for face in p.lattice.faces:
        if not face.mask:
            continue
        point = interior_point([p.rows[i] for i in face.vertex_set])
        for facet, h in planes:
            # The row product is x0 (a.x - c) with x0 > 0: the side's sign.
            value = sum(map(mul, h.row, point))
            expected = 0 if face.mask & ~facet.mask == 0 else -1
            assert (value > 0) - (value < 0) == expected, (face.id, facet.id)


class TestInteriorPoint:
    def test_examples(self):
        assert interior_point([R([0, 0]), R([1, 0])]) == R([F(1, 2), F(0)])
        square = [R([0, 0]), R([1, 0]), R([0, 1]), R([1, 1])]
        assert interior_point(square) == R([F(1, 2), F(1, 2)])
        assert interior_point([R([0, 0]), R([0, 1]), R([3, 0])]) == R([F(1), F(1, 3)])
        # Rows (6, 3, 2) and (4, 1, 0) with x0 > 1: (1/2, 1/3) and (1/4, 0)
        # weighted 6/10 and 4/10, not their mean (3/8, 1/6).
        rows = [R([F(1, 2), F(1, 3)]), R([F(1, 4), 0])]
        assert interior_point(rows) == R([F(2, 5), F(1, 5)])

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            interior_point([])

    @pytest.mark.parametrize("family,dim,n", FAMILY_GRID)
    def test_relative_interior_on_family_grid(self, family, dim, n):
        assert_interior_points_are_relatively_interior(polytope(family, dim, n))

    def test_relative_interior_on_golden_random_polytopes(self):
        for p in golden_random_polytopes():
            assert_interior_points_are_relatively_interior(p)

    def test_relative_interior_with_unequal_x0(self):
        """The 4-pyramid's apex row has x0 = 2, and the rows of its dual and
        of a cyclic polytope's dual mix their x0 too."""
        pyramid = polytope("pyramid", 4)
        for p in (pyramid, polar_dual(pyramid), polar_dual(polytope("cyclic", 4, 7))):
            assert len({row[0] for row in p.rows}) > 1
            assert_interior_points_are_relatively_interior(p)


class TestSegmentIntersection:
    def test_examples(self):
        h = plane([1, 0], F(1, 2))
        z = segment_hyperplane_intersection(Q([0, 0]), Q([1, 0]), h)
        assert z == (F(1, 2), F(0))

        g = plane([1, 0], F(1))
        z = segment_hyperplane_intersection(Q([0, 2]), Q([3, 0]), g)
        assert z == (F(1), F(4, 3))

        diag = plane([1, 1, 1], F(1))
        z = segment_hyperplane_intersection(Q([0, 0, 0]), Q([1, 1, 1]), diag)
        assert z == (F(1, 3), F(1, 3), F(1, 3))

    def test_requires_strict_crossing(self):
        h = plane([1, 0], F(1, 2))
        with pytest.raises(GeometryError):
            segment_hyperplane_intersection(Q([1, 0]), Q([2, 0]), h)
        with pytest.raises(GeometryError):
            segment_hyperplane_intersection(Q([F(1, 2), 0]), Q([2, 0]), h)

    @given(st.data())
    @settings(max_examples=60)
    def test_point_lies_on_plane_and_inside_box(self, data):
        d = data.draw(st.integers(min_value=2, max_value=3))
        p = Q([data.draw(rationals) for _ in range(d)])
        q = Q([data.draw(rationals) for _ in range(d)])
        normal = [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(d)]
        if not any(normal):
            return
        offset = data.draw(rationals)
        h = plane(normal, offset)
        if side(h, p) * side(h, q) != -1:
            return
        z = segment_hyperplane_intersection(p, q, h)
        assert side(h, z) == 0
        for a, b, c in zip(p, q, z):
            assert min(a, b) <= c <= max(a, b)


class TestHyperplaneThrough:
    def test_square_edge(self):
        h = hyperplane_through([R([0, 0]), R([0, 1])])
        assert h is not None
        assert side(h, Q([1, F(1, 2)])) != 0
        assert side(h, Q([0, 7])) == 0

    def test_cube_facet(self):
        pts = [Q([0, 0, 0]), Q([0, 1, 0]), Q([0, 0, 1])]
        h = hyperplane_through([R(p) for p in pts])
        assert h is not None
        assert all(side(h, p) == 0 for p in pts)
        assert side(h, Q([1, 0, 0])) != 0

    def test_degenerate_returns_none(self):
        assert hyperplane_through([R([0, 0, 0]), R([1, 1, 1])]) is None
        # affinely dependent triple spanning only a line
        assert hyperplane_through([R([0, 0, 0]), R([1, 0, 0]), R([2, 0, 0])]) is None


def _random_point_set(rng: random.Random, d: int) -> list[tuple]:
    """d-1 to d+2 points, integer or rational; a third of the sets repeat a
    point or add an affine combination of two, so some spans are deficient."""
    rational = rng.random() < 0.5

    def coordinate() -> F:
        return F(rng.randint(-4, 4), rng.randint(1, 4) if rational else 1)

    points = [Q([coordinate() for _ in range(d)]) for _ in range(rng.randint(d - 1, d + 2))]
    if len(points) >= 2 and rng.random() < 1 / 3:
        p, q = rng.sample(points, 2)
        t = F(rng.randint(-2, 3), rng.randint(1, 2))
        points.insert(rng.randrange(len(points)), tuple(a + (b - a) * t for a, b in zip(p, q)))
    return points


class TestKernelsAgainstFractionOracles:
    """Integer elimination against Fraction elimination of the differences."""

    def test_rank_chart_and_hyperplane(self):
        rng = random.Random(29)
        planes = deficient = 0
        for trial in range(1200):
            d = 2 + trial % 6
            points = _random_point_set(rng, d)
            chart = affine_chart_oracle(points)
            rows = [R(p) for p in points]
            assert affine_rank(rows) == len(chart)
            h = hyperplane_through(rows)
            assert h == hyperplane_through_oracle(points)
            planes += h is not None
            deficient += len(chart) < min(d, len(points) - 1)
        assert planes >= 300 and deficient >= 100


def in_hull(points, target) -> bool:
    """The library's route: target lies in the hull of the points when it
    lies in their affine hull and every facet row, from double description
    on the points' rows, is nonpositive at it."""
    rows = list(dict.fromkeys(R(x) for x in points))
    t = R(target)
    if affine_rank(rows + [t]) != affine_rank(rows):
        return False
    return all(sum(map(mul, row, t)) <= 0 for row in VPolytope(tuple(rows)).facet_rows.values())


class TestHullMembership:
    def test_examples(self):
        square = [Q([0, 0]), Q([1, 0]), Q([0, 1]), Q([1, 1])]
        assert in_hull(square, Q([F(1, 2), F(1, 2)]))
        assert not in_hull(square, Q([2, 0]))
        tri = [Q([0, 0]), Q([4, 0]), Q([0, 4])]
        assert in_hull(tri, Q([1, 1]))
        assert not in_hull(tri, Q([3, 3]))

    def test_boundary_and_vertex_are_inside(self):
        tri = [Q([0, 0]), Q([2, 0]), Q([0, 2])]
        assert in_hull(tri, Q([1, 0]))
        assert in_hull(tri, Q([0, 2]))

    def test_matches_caratheodory_oracle_on_random_sets(self):
        rng = random.Random(23)
        for _ in range(50):
            d = rng.choice([2, 3])
            pts = [Q([rng.randint(-2, 2) for _ in range(d)]) for _ in range(rng.randint(d + 1, d + 4))]
            probe = Q([F(rng.randint(-4, 4), 2) for _ in range(d)])
            assert in_hull(pts, probe) == hull_membership_oracle(pts, probe)
