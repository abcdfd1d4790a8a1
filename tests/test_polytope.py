"""Face lattice construction, polar duality, and the text file format."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facelab import geometry, polytope as polytope_module
from facelab.cli import run
from facelab.generators import cross_polytope, cube, cyclic, random_polytope, simplex
from facelab.geometry import Hyperplane, QVector
from facelab.polytope import (
    EMPTY_FACE_ID,
    Face,
    FaceLattice,
    PolytopeError,
    VPolytope,
    _double_description,
    _initial_cone,
    face_id,
    face_lattice,
    facets,
    format_polytope,
    mask_of,
    parse_polytope,
    polar_dual,
    save_polytope,
)
from facelab.section import section
from instances import (
    CLASSICAL,
    FAMILY_GRID,
    classical,
    golden_random_polytopes,
    lattice_of,
    polytope,
    random_cutting_plane,
)
from oracles import (
    affine_chart_oracle,
    affine_rank,
    affine_rank_oracle,
    anti_isomorphism_oracle,
    brute_force_facets,
    closure_lattice,
    euler_characteristic_holds,
    fraction_reduce,
    gale_evenness_facets,
    hull_membership_oracle,
    initial_cone_oracle,
    rational_points,
    side,
)

F = Fraction
Q = QVector.of


class TestFaceIds:
    def test_round_trip(self):
        assert face_id(0b100101) == "v0-v2-v5"
        assert face_id(0) == EMPTY_FACE_ID
        lat = lattice_of("cube", 3)
        for f in lat.faces:
            assert lat.face(face_id(f.mask)) == f

    @pytest.mark.parametrize(
        "text",
        [
            "v1-v0", "v2-v1", "v01", "v1-v1", " v1", "v1\n", "v8", "v99999999999",
            "v" + "9" * 5000, "", "x3", "v1-", "v01x",
        ],
    )
    def test_lattice_lookup_takes_only_canonical_ids(self, text):
        lat = lattice_of("cube", 3)
        with pytest.raises(PolytopeError, match="^unknown face id "):
            lat.face(text)
        assert lat.face("v0-v1").vertex_set == (0, 1)
        assert lat.face(EMPTY_FACE_ID) is lat.faces[0]


class TestVPolytope:
    def test_rejects_duplicates(self):
        with pytest.raises(PolytopeError):
            VPolytope.from_points([Q([0, 0]), Q([1, 0]), Q([0, 0])])

    def test_rejects_non_vertex_points(self):
        square_plus_center = [Q([0, 0]), Q([1, 0]), Q([0, 1]), Q([1, 1]), Q([F(1, 2), F(1, 2)])]
        with pytest.raises(PolytopeError):
            VPolytope.from_points(square_plus_center)

    def test_rejects_midpoint_of_edge(self):
        with pytest.raises(PolytopeError):
            VPolytope.from_points([Q([0, 0]), Q([2, 0]), Q([1, 0])])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((), "a polytope needs at least one vertex"),
            (((1, 0, 0), (1, 1)), "all vertices must share the ambient dimension"),
            (((1, 0, 0), (1, 1, 0), (1, 0, 0)), "duplicate vertices in input"),
        ],
    )
    def test_constructor_refuses_malformed_rows(self, rows, message):
        with pytest.raises(PolytopeError, match=f"^{message}$"):
            VPolytope(rows)
        with pytest.raises(PolytopeError, match=f"^{message}$"):
            VPolytope.from_points([QVector(row) for row in rows])

    @pytest.mark.parametrize("validate", [True, False])
    def test_rows_are_the_value(self, validate):
        for family, d, n in FAMILY_GRID:
            points = [Q(v) for v in rational_points(polytope(family, d, n))]
            p = VPolytope.from_points(points, validate=validate)
            twin = VPolytope(p.rows)
            assert twin == p and hash(twin) == hash(p)
        # Rows alone decide equality: a reordering is another polytope.
        square = cube(2)
        assert VPolytope(square.rows[::-1]) != square

    def test_immutable_and_equal_only_to_polytopes(self):
        p = cube(2)
        with pytest.raises(AttributeError, match="^VPolytope is immutable$"):
            del p.rows
        assert p == cube(2)
        # A tuple holding the same rows is another kind of value.
        assert (p == (p.rows,)) is False

    def test_dimensions_follow_from_rows(self):
        # A triangle in the plane z = 1 of 3-space, then a segment in the plane.
        triangle = VPolytope(tuple(Q(v).row for v in ([0, 0, 1], [1, 0, 1], [0, 1, 1])))
        assert (triangle.ambient_dim, triangle.dim) == (3, 2)
        segment = VPolytope(tuple(Q(v).row for v in ([0, 0], [F(1, 2), F(1, 3)])))
        assert (segment.ambient_dim, segment.dim) == (2, 1)
        point = VPolytope((Q([5, 7, 1, 0]).row,))
        assert (point.ambient_dim, point.dim) == (4, 0)
        for family, d, n in FAMILY_GRID:
            twin = VPolytope(polytope(family, d, n).rows)
            assert (twin.ambient_dim, twin.dim) == (d, d)


class TestFacets:
    def test_unit_square(self):
        p = cube(2)
        found = {h.row for _, h in facets(p)}
        # Rows (-c, a) of the facets a.x <= c.
        assert found == {(0, -1, 0), (0, 0, -1), (-1, 1, 0), (-1, 0, 1)}

    def test_cube3_facet_ids_in_order(self):
        ids = [f.id for f, _ in facets(cube(3))]
        assert ids == [
            "v0-v1-v2-v3",
            "v0-v1-v4-v5",
            "v0-v2-v4-v6",
            "v1-v3-v5-v7",
            "v2-v3-v6-v7",
            "v4-v5-v6-v7",
        ]

    def test_facets_support_all_their_vertices_exactly(self):
        p = cross_polytope(3)
        points = rational_points(p)
        for face, h in facets(p):
            on = {i for i, v in enumerate(points) if side(h, v) == 0}
            assert on == set(face.vertex_set)
            assert all(side(h, v) < 0 for i, v in enumerate(points) if i not in on)

    def test_simplex_has_d_plus_one_facets(self):
        for d in (2, 3, 4):
            assert len(facets(simplex(d))) == d + 1

    def test_cyclic_matches_evenness_condition(self):
        found = {frozenset(f.vertex_set) for f, _ in facets(cyclic(3, 6))}
        assert found == gale_evenness_facets(6, 3)

    def test_not_full_dimensional_rejected(self):
        flat = VPolytope.from_points([Q([0, 0, 0]), Q([1, 0, 0]), Q([0, 1, 0])])
        with pytest.raises(PolytopeError):
            facets(flat)


class TestFaceLattice:
    def test_f_vectors(self):
        assert lattice_of("cube", 3).f_vector == (8, 12, 6)
        assert lattice_of("simplex", 4).f_vector == (5, 10, 10, 5)
        assert lattice_of("cross", 3).f_vector == (6, 12, 8)
        assert lattice_of("cyclic", 3, n=6).f_vector == (6, 12, 8)

    def test_euler_characteristic(self):
        for args in [("cube", 3), ("simplex", 4), ("cross", 3), ("cyclic", 4, 7)]:
            assert euler_characteristic_holds(lattice_of(*args))

    def test_closure_under_intersection(self):
        lat = lattice_of("cube", 3)
        sets = {f.vertex_set for f in lat.faces}
        for a, b in combinations(lat.faces, 2):
            meet = tuple(sorted(set(a.vertex_set) & set(b.vertex_set)))
            assert meet in sets

    def test_grading(self):
        lat = lattice_of("cyclic", 3, n=6)
        for a in lat.faces:
            for b in lat.faces:
                if a is not b and set(a.vertex_set) < set(b.vertex_set):
                    assert a.dim < b.dim
        # every proper face sits under some face one dimension up
        for f in lat.faces:
            if f.dim < lat.dim:
                assert any(p.dim == f.dim + 1 for p in lat.parents(f))

    def test_meet_examples(self):
        lat = lattice_of("cube", 3)
        a = lat.face("v0-v1-v2-v3")
        b = lat.face("v0-v1-v4-v5")
        assert lat.face_of_mask(a.mask & b.mask).id == "v0-v1"
        opposite = lat.face("v4-v5-v6-v7")
        assert lat.face_of_mask(a.mask & opposite.mask).id == EMPTY_FACE_ID

    def test_covering_pairs_cube3(self):
        lat = lattice_of("cube", 3)
        pairs = lat.to_json_dict()["inclusions"]
        assert len(pairs) == 8 + 24 + 24 + 6
        children_of_full = [c for c, p in pairs if p == lat.full_face.id]
        assert sorted(children_of_full) == sorted(f.id for f in lat.faces_of_dim(2))
        parents_of_empty = [p for c, p in pairs if c == EMPTY_FACE_ID]
        assert len(parents_of_empty) == 8

    def test_simple_polytope_incidence_counts(self):
        # cubes and simplices: a k-face lies in exactly d-k facets
        for fam, d in [("cube", 3), ("simplex", 3), ("cube", 4)]:
            lat = lattice_of(fam, d)
            facet_sets = [set(f.vertex_set) for f in lat.faces_of_dim(d - 1)]
            for k in range(d):
                for f in lat.faces_of_dim(k):
                    count = sum(1 for s in facet_sets if set(f.vertex_set) <= s)
                    assert count == d - k

    def test_faces_of_dim_bounds(self):
        lat = lattice_of("simplex", 2)
        assert [f.id for f in lat.faces_of_dim(-1)] == [EMPTY_FACE_ID]
        assert len(lat.faces_of_dim(2)) == 1
        with pytest.raises(PolytopeError):
            lat.faces_of_dim(3)

    def test_json_shape(self):
        lat = lattice_of("simplex", 2)
        doc = lat.to_json_dict()
        assert doc["dim"] == 2
        assert doc["f_vector"] == [3, 3]
        ids = {f["id"] for f in doc["faces"]}
        assert EMPTY_FACE_ID in ids
        for child, parent in doc["inclusions"]:
            assert child in ids and parent in ids

    @pytest.mark.parametrize("method", ["children", "parents"])
    def test_relations_of_a_face_not_in_the_lattice_refused(self, method):
        lat = lattice_of("cube", 3)
        with pytest.raises(PolytopeError, match="^unknown face 'v8'$"):
            getattr(lat, method)(Face(1 << 8, 0))


def assert_graded(lat: FaceLattice) -> None:
    """Grades, covers and f-vector against a plain filter of `faces`, with
    covers found by mask containment one dimension down and up."""
    assert list(lat.faces) == sorted(lat.faces, key=lambda f: (f.dim, f.vertex_set))
    grade = {k: [f for f in lat.faces if f.dim == k] for k in range(-2, lat.dim + 2)}
    for k in range(-1, lat.dim + 1):
        assert lat.faces_of_dim(k) == grade[k]
    for f in lat.faces:
        assert lat.children(f) == [c for c in grade[f.dim - 1] if c.mask & ~f.mask == 0]
        assert lat.parents(f) == [q for q in grade[f.dim + 1] if f.mask & ~q.mask == 0]
    assert lat.f_vector == tuple(len(grade[k]) for k in range(lat.dim))


class TestGradedLattice:
    @pytest.mark.parametrize("family,dim,n", FAMILY_GRID)
    def test_grid(self, family, dim, n):
        assert_graded(lattice_of(family, dim, n))

    def test_golden_random_polytopes(self):
        found = golden_random_polytopes()
        assert len(found) == 25
        for p in found:
            assert_graded(face_lattice(p))

    @pytest.mark.parametrize(
        "family,dim,n",
        [("simplex", 3, None), ("cube", 3, None), ("cross", 3, None), ("cyclic", 4, 7)],
    )
    def test_slice_lattices(self, family, dim, n):
        p = polytope(family, dim, n)
        sliced = section(p, random_cutting_plane(p, random.Random(dim))).slice_polytope
        assert sliced.lattice.dim == dim - 1
        assert_graded(sliced.lattice)


def assert_matches_brute_force(p: VPolytope) -> None:
    """Facets with hyperplanes, faces with dims, and covers in order."""
    found = facets(p)
    assert [(f.vertex_set, h) for f, h in found] == brute_force_facets(p)
    assert all(f.dim == p.dim - 1 for f, _ in found)
    lat = face_lattice(p)
    dims, covers = closure_lattice(p)
    assert {f.vertex_set: f.dim for f in lat.faces} == dims
    assert lat.to_json_dict()["inclusions"] == [
        [face_id(mask_of(c)), face_id(mask_of(q))] for c, q in covers
    ]


coords = st.integers(min_value=-3, max_value=3)


@st.composite
def full_dimensional_points(draw) -> list[QVector]:
    """Integer point sets in d = 2..5 with up to d+7 points, some of them not
    vertices: free points in a small box, pyramids and prisms over such a
    base, or 0/1 points, which in d = 5 often need the full adjacency test
    (a zero-set count alone would admit non-adjacent ray pairs)."""
    shape = draw(st.sampled_from(["points", "pyramid", "prism", "zero_one"]))
    d = 5 if shape == "zero_one" else draw(st.integers(min_value=2, max_value=5))
    base_dim = d if shape in ("points", "zero_one") else d - 1
    most = {"points": d + 7, "zero_one": d + 7, "pyramid": d + 6, "prism": (d + 7) // 2}
    entries = st.integers(min_value=0, max_value=1) if shape == "zero_one" else coords
    base = draw(
        st.lists(
            st.tuples(*[entries] * base_dim),
            min_size=base_dim + 1,
            max_size=most[shape],
            unique=True,
        )
    )
    points = [Q(b) for b in base]
    assume(affine_rank([v.row for v in points]) == base_dim)
    height = draw(st.integers(min_value=1, max_value=3))
    if shape == "pyramid":
        apex = draw(st.tuples(*[coords] * base_dim))
        points = [Q(list(b) + [0]) for b in base] + [Q(list(apex) + [height])]
    elif shape == "prism":
        points = [Q(list(b) + [h]) for h in (0, height) for b in base]
    return points


def mean(points: list[tuple]) -> tuple:
    return tuple(sum(column, F(0)) / len(points) for column in zip(*points))


@st.composite
def candidate_vertex_sets(draw) -> list[tuple]:
    """Distinct points in d = 1..3 whose hull may be lower-dimensional, mixed
    with edge or diagonal midpoints and barycenters, in shuffled order; each
    point is its rational coordinates."""
    d = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=d))
    base = draw(st.lists(st.tuples(*[coords] * m), min_size=1, max_size=6, unique=True))
    points = [tuple(F(x) for x in b) for b in base]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(base) - 1))
        j = draw(st.integers(min_value=0, max_value=len(base) - 1))
        points.append(mean([points[i], points[j]]))
    if draw(st.booleans()):
        points.append(mean(points[: draw(st.integers(1, len(points)))]))
    # Embed the m-dimensional set affinely into R^d.
    rows = [
        draw(st.lists(coords, min_size=m + 1, max_size=m + 1)) for _ in range(d - m)
    ]
    embedded = [
        v + tuple(sum((c * x for c, x in zip(r, v)), F(r[-1])) for r in rows) for v in points
    ]
    shuffled = draw(st.permutations(embedded))
    return list(dict.fromkeys(shuffled))


class TestAgainstBruteForce:
    """Double-description facets and the top-down lattice against the C(n,d)
    scan and the pairwise-closure lattice."""

    @pytest.mark.parametrize(
        "family,dim,n,seed",
        [(f, d, n, None) for f, d, n in FAMILY_GRID]
        + [
            ("pyramid", 3, None, None), ("pyramid", 4, None, None),
            ("prism", 3, None, None), ("prism", 4, None, None),
            ("cross", 5, None, None), ("cyclic", 4, 8, None), ("cyclic", 5, 8, None),
            ("random", 3, 7, 0), ("random", 4, 8, 1),
        ],
    )
    def test_grid(self, family, dim, n, seed):
        assert_matches_brute_force(polytope(family, dim, n, seed))

    @given(full_dimensional_points())
    @settings(max_examples=50, deadline=None)
    def test_drawn_point_sets(self, points):
        assert_matches_brute_force(VPolytope.from_points(points, validate=False))

    @given(candidate_vertex_sets())
    @settings(max_examples=80, deadline=None)
    def test_vertex_check_matches_hull_membership(self, points):
        inside = [
            i for i, v in enumerate(points)
            if hull_membership_oracle(points[:i] + points[i + 1 :], v)
        ]
        vectors = [Q(v) for v in points]
        if not inside:
            assert VPolytope.from_points(vectors).n_vertices == len(points)
            return
        message = f"input point {inside[0]} is not a vertex (inside the hull of the rest)"
        with pytest.raises(PolytopeError) as caught:
            VPolytope.from_points(vectors)
        assert str(caught.value) == message


def chart_rows(p: VPolytope) -> list[list[int]]:
    """The vertex rows restricted to x0 and the coordinates that chart the
    affine hull, as `oracles.affine_chart_oracle` finds them; they span their
    space."""
    columns = [0] + [1 + j for j in affine_chart_oracle(rational_points(p))]
    return [[row[c] for c in columns] for row in p.rows]


def facet_row_cone_oracle(rows) -> tuple[list[int], list[tuple[int, ...]]]:
    """`initial_cone_oracle` with its rays negated: each negative on its own
    row, the sign of a facet row."""
    chosen, rays = initial_cone_oracle(rows)
    return chosen, [tuple(-x for x in ray) for ray in rays]


def double_description_on_oracle_cone(rows) -> dict:
    """The library's double description, started from the oracle's cone."""
    return _double_description(rows, facet_row_cone_oracle(rows))


def assert_cone_matches_oracle(rows) -> None:
    assert _initial_cone(rows) == facet_row_cone_oracle(rows)


@st.composite
def full_rank_rows(draw) -> list[list[int]]:
    """n small integer rows of width 1..5 that span their space, n >= width."""
    size = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=size, max_value=size + 5))
    row = st.lists(st.integers(min_value=-4, max_value=4), min_size=size, max_size=size)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    assume(len(fraction_reduce([[F(x) for x in r] for r in rows])[1]) == size)
    return rows


@pytest.fixture
def eliminations(monkeypatch) -> list[int]:
    """The row count of each `geometry.eliminate` call the library makes."""
    calls, eliminate = [], geometry.eliminate

    def counted(rows):
        calls.append(len(rows))
        return eliminate(rows)

    for module in (geometry, polytope_module):
        monkeypatch.setattr(module, "eliminate", counted)
    return calls


class TestInitialCone:
    """All initial rays from one elimination of [rows^T | I], against one
    elimination per ray (`oracles.initial_cone_oracle`, its rays negated to
    the facet-row sign), and the double description started from each; a
    lower-dimensional polytope against the oracle's run on its affine
    chart."""

    @pytest.mark.parametrize("family,dim,n", FAMILY_GRID)
    def test_grid(self, family, dim, n):
        p = polytope(family, dim, n)
        assert_cone_matches_oracle(p.rows)
        assert p.facet_rows == double_description_on_oracle_cone(p.rows)

    def test_golden_random_polytopes(self):
        found = golden_random_polytopes()
        assert len(found) == 25
        for p in found:
            assert_cone_matches_oracle(p.rows)

    @given(full_rank_rows())
    @settings(max_examples=200, deadline=None)
    def test_drawn_full_rank_rows(self, rows):
        assert_cone_matches_oracle(rows)

    @given(candidate_vertex_sets())
    @settings(max_examples=80, deadline=None)
    def test_drawn_lower_dimensional_point_sets(self, points):
        """Rays stay in full homogeneous coordinates, each up to a vector zero
        on every row: the chosen rows and the masks are the chart's, and each
        ray is nonpositive on every row and zero exactly on its mask."""
        p = VPolytope.from_points([Q(v) for v in points], validate=False)
        rows = chart_rows(p)
        assert p.dim == affine_rank_oracle(points) == len(rows[0]) - 1
        assert_cone_matches_oracle(rows)
        assert p._cone[0] == initial_cone_oracle(rows)[0]
        assert list(p.facet_rows) == list(double_description_on_oracle_cone(rows))
        for mask, ray in p.facet_rows.items():
            values = [sum(map(mul, row, ray)) for row in p.rows]
            assert max(values) <= 0
            assert mask_of(i for i, v in enumerate(values) if v == 0) == mask

    @pytest.mark.parametrize("d", range(1, 7))
    def test_validated_load_takes_one_elimination(self, eliminations, d):
        """One elimination per validated load, by `from_points`,
        `parse_polytope` or `polar_dual`, in every dimension: the initial
        cone's gives the dimension too (an elimination per initial ray would
        make it d+2)."""
        unit = [[int(i == j) for j in range(d)] for i in range(d)]
        shapes = {
            "cube": [list(v) for v in product((0, 1), repeat=d)],
            "cross": unit + [[-x for x in v] for v in unit],
            "simplex": [[0] * d] + unit,
        }
        for shape, points in shapes.items():
            eliminations.clear()
            p = VPolytope.from_points([Q(v) for v in points], validate=True)
            assert p.dim == d and len(p.facet_rows) > d, shape
            assert eliminations == [d + 1], shape
            eliminations.clear()
            assert parse_polytope(format_polytope(p)) == p
            assert eliminations == [d + 1], shape
            eliminations.clear()
            assert polar_dual(p).n_vertices == len(p.facet_rows), shape
            assert eliminations == [d + 1], shape

    def test_section_slice_reads_its_dim_without_an_elimination(self, eliminations):
        """`section` sets a slice's dim with its lattice, so reading either
        runs no elimination."""
        p = polytope("cube", 3)
        eliminations.clear()
        smap = section(p, Hyperplane.of([1, 1, 1], F(3, 2)))
        assert smap.slice_polytope.dim == smap.slice_polytope.lattice.dim == 2
        assert eliminations == []


def assert_diamond(lat: FaceLattice) -> None:
    """Every interval of length two holds exactly two faces strictly inside."""
    for f in lat.faces:
        above = Counter(h.vertex_set for g in lat.parents(f) for h in lat.parents(g))
        assert set(above.values()) <= {2}, f.id


LARGE = [
    ("cube", 5, None), ("cube", 6, None), ("cross", 6, None), ("cyclic", 5, 12), ("cyclic", 6, 10),
]


class TestLargeLattices:
    """Sizes that the C(n,d) facet scan could not reach in a test run."""

    @pytest.mark.parametrize(
        "dim,f_vector",
        [(5, [32, 80, 80, 40, 10]), (6, [64, 192, 240, 160, 60, 12])],
    )
    def test_cube_lattice_command(self, tmp_path, dim, f_vector):
        path = str(tmp_path / f"cube{dim}.poly")
        save_polytope(cube(dim), path)
        doc = json.loads(run(["lattice", path]).render())
        assert doc["output"]["f_vector"] == f_vector

    @pytest.mark.parametrize("d", [5, 6])
    def test_cube_facets_closed_form(self, d):
        # x_j >= 0 holds with equality on the vertices whose bit j is 0.
        expected = []
        for j in range(d):
            for value, sign in ((0, -1), (1, 1)):
                on = tuple(i for i in range(2**d) if (i >> (d - 1 - j)) & 1 == value)
                normal = tuple(sign if c == j else 0 for c in range(d))
                expected.append((on, (-value, *normal)))
        found = [(f.vertex_set, h.row) for f, h in facets(cube(d))]
        assert found == sorted(expected)

    def test_cross6_facets_closed_form(self):
        # One facet per sign vector s: s.x <= 1, through the vertices s_j e_j.
        expected = sorted(
            (tuple(2 * j + (s[j] < 0) for j in range(6)), (-1, *s))
            for s in product((1, -1), repeat=6)
        )
        found = [(f.vertex_set, h.row) for f, h in facets(cross_polytope(6))]
        assert found == expected

    def test_cross6_f_vector(self):
        assert lattice_of("cross", 6).f_vector == (12, 60, 160, 240, 192, 64)

    @pytest.mark.parametrize("d,n", [(5, 12), (6, 10)])
    def test_cyclic_facets_match_evenness(self, d, n):
        found = {frozenset(f.vertex_set) for f, _ in facets(polytope("cyclic", d, n))}
        assert found == gale_evenness_facets(n, d)

    @pytest.mark.parametrize("family,dim,n", LARGE)
    def test_euler_and_diamond(self, family, dim, n):
        lat = lattice_of(family, dim, n)
        assert euler_characteristic_holds(lat)
        assert_diamond(lat)


def stirling2(n: int, k: int) -> int:
    """The Stirling number of the second kind: partitions of n things into
    k nonempty blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestClassicalFamilies:
    """Hypersimplices, permutahedra, the 24-cell and the Birkhoff polytopes
    B_3 and B_4, against their closed-form counts (Ziegler 1995, Lecture 0)."""

    @pytest.mark.parametrize("name", list(CLASSICAL))
    def test_f_vector_euler_and_diamond(self, name):
        lat = classical(name).lattice
        assert lat.f_vector == CLASSICAL[name][1]
        assert lat.dim == len(lat.f_vector) == classical(name).dim
        assert euler_characteristic_holds(lat)
        assert_diamond(lat)

    @pytest.mark.parametrize("n", [4, 5])
    def test_permutahedron_has_stirling_many_faces(self, n):
        # A k-face of Pi_n is an ordered partition of {1..n} into n - k blocks.
        f_vector = classical(f"permutahedron({n})").lattice.f_vector
        assert f_vector == tuple(factorial(n - k) * stirling2(n, n - k) for k in range(n - 1))

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (6, 3)])
    def test_hypersimplex_vertices_and_facets(self, n, k):
        # Facets x_i = 0 and x_i = 1, one pair per coordinate, for 2 <= k <= n - 2.
        f_vector = classical(f"hypersimplex({n},{k})").lattice.f_vector
        assert (f_vector[0], f_vector[-1]) == (comb(n, k), 2 * n)

    def test_birkhoff_vertices_and_facets(self):
        # B_n for n >= 3: the n! permutation matrices, and a facet x_ij = 0
        # per entry.  The 24-cell's closed form is its f-vector in CLASSICAL.
        for n in (3, 4):
            f_vector = classical(f"birkhoff({n})").lattice.f_vector
            assert (f_vector[0], f_vector[-1]) == (factorial(n), n**2)


class TestPolarDual:
    def test_cube3_dual_is_octahedron(self):
        d = polar_dual(cube(3))
        assert lattice_of_dual(d).f_vector == (6, 12, 8)
        assert set(d.rows) == {
            (1, 2, 0, 0), (1, -2, 0, 0),
            (1, 0, 2, 0), (1, 0, -2, 0),
            (1, 0, 0, 2), (1, 0, 0, -2),
        }

    def test_triangle_dual_is_triangle(self):
        d = polar_dual(simplex(2))
        assert d.n_vertices == 3
        assert lattice_of_dual(d).f_vector == (3, 3)

    def test_dual_face_map_reverses_inclusion(self):
        p = cube(3)
        lat = face_lattice(p)
        images = anti_isomorphism_oracle(p)
        assert images is not None
        assert images[lat.face("v0")].vertex_set == (0, 1, 2)
        assert images[lat.full_face].vertex_set == ()
        assert len(images[lat.faces[0]].vertex_set) == 6
        for a in lat.faces:
            for b in lat.faces:
                if set(a.vertex_set) <= set(b.vertex_set):
                    assert set(images[b].vertex_set) <= set(images[a].vertex_set)

    def test_anti_isomorphism_random_3_polytope(self):
        p = random_polytope(3, 7, seed=5)
        lat = face_lattice(p)
        images = anti_isomorphism_oracle(p)
        assert images is not None
        # image sets must be exactly the dual faces, counted once each
        dlat = face_lattice(polar_dual(p))
        assert sorted(images.values()) == sorted(dlat.faces)
        for f in lat.faces:
            assert images[f].dim == lat.dim - 1 - f.dim

    def test_anti_isomorphism_standard_families(self):
        for fam, d in [("cube", 3), ("cross", 3), ("simplex", 4)]:
            assert anti_isomorphism_oracle(polytope(fam, d)) is not None


def lattice_of_dual(p: VPolytope) -> FaceLattice:
    return face_lattice(p)


# Counts int() would take: fullwidth 2, an underscore, a plus sign, Arabic-Indic 4.
HEADER_COUNTS = ["\uff12 4", "2 0_4", "2 +4", "2 \u0664"]


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        p = cyclic(3, 6)
        text = format_polytope(p)
        again = parse_polytope(text)
        assert again.rows == p.rows
        assert again.ambient_dim == p.ambient_dim

    def test_header_and_rows(self):
        text = "polytope 2 3\n0 0\n1 0\n0 1\n"
        p = parse_polytope(text)
        assert p.n_vertices == 3 and p.dim == 2

    def test_blank_lines_ignored(self):
        text = "polytope 2 3\n\n0 0\n1 0\n\n0 1\n"
        assert parse_polytope(text).n_vertices == 3

    @pytest.mark.parametrize(
        "text",
        [
            "0 0\n1 0\n0 1\n",
            "polytope 2 4\n0 0\n1 0\n0 1\n",
            "polytope 2 2\n0 0\n1 0\n0 1\n",
            "polytope 2 3\n0 0\n1 0 0\n0 1\n",
            "polytope 2 3\n0 0\n1.5 0\n0 1\n",
            "polytope x 3\n0 0\n1 0\n0 1\n",
            *(f"polytope {header}\n0 0\n1 0\n0 1\n1 1\n" for header in HEADER_COUNTS),
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(PolytopeError):
            parse_polytope(text)

    @pytest.mark.parametrize("header", HEADER_COUNTS)
    def test_header_counts_are_ascii_digits(self, header):
        with pytest.raises(PolytopeError, match="^bad header: dimensions must be integers$"):
            parse_polytope(f"polytope {header}\n0 0\n1 0\n0 1\n1 1\n")

    def test_fractional_coordinates(self):
        text = "polytope 2 3\n0 0\n1 0\n1/2 3/2\n"
        p = parse_polytope(text)
        assert p.rows[2] == (2, 1, 3)
        assert rational_points(p)[2] == (F(1, 2), F(3, 2))
