"""Face lattice construction, polar duality, and the text file format."""

from fractions import Fraction
from itertools import combinations

import pytest

from facelab.generators import cross_polytope, cube, cyclic, random_polytope, simplex
from facelab.geometry import QVector
from facelab.polytope import (
    EMPTY_FACE_ID,
    Face,
    FaceLattice,
    PolytopeError,
    VPolytope,
    dual_face_map,
    face_id,
    face_lattice,
    facets,
    format_polytope,
    lattice_anti_isomorphic,
    parse_face_id,
    parse_polytope,
    polar_dual,
)
from instances import instance, lattice_of
from oracles import gale_evenness_facets

F = Fraction
Q = QVector.of


class TestFaceIds:
    def test_round_trip(self):
        assert face_id([2, 0, 5]) == "v0-v2-v5"
        assert parse_face_id("v0-v2-v5") == (0, 2, 5)
        assert parse_face_id("v7") == (7,)

    @pytest.mark.parametrize("text", ["", "v1-v1", "v2-v1", "x3", "v1-", "v01x"])
    def test_rejects_malformed(self, text):
        with pytest.raises(PolytopeError):
            parse_face_id(text)


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


class TestFacets:
    def test_unit_square(self):
        p = cube(2)
        found = {(h.normal.coords, h.offset) for _, h in facets(p)}
        assert found == {
            ((F(-1), F(0)), F(0)),
            ((F(0), F(-1)), F(0)),
            ((F(1), F(0)), F(1)),
            ((F(0), F(1)), F(1)),
        }

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
        for face, h in facets(p):
            on = {i for i, v in enumerate(p.vertices) if h.side(v) == 0}
            assert on == set(face.vertex_set)
            assert all(h.side(v) < 0 for i, v in enumerate(p.vertices) if i not in on)

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
            assert lattice_of(*args).euler_characteristic_holds()

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
        assert lat.meet(a, b).id == "v0-v1"
        opposite = lat.face("v4-v5-v6-v7")
        assert lat.meet(a, opposite).id == EMPTY_FACE_ID

    def test_smallest_face_containing(self):
        lat = lattice_of("cube", 3)
        v0, v1 = lat.face("v0"), lat.face("v1")
        assert lat.smallest_face_containing(v0, v1).id == "v0-v1"
        v3 = lat.face("v3")
        assert lat.smallest_face_containing(v0, v3).id == "v0-v1-v2-v3"
        v7 = lat.face("v7")
        assert lat.smallest_face_containing(v0, v7).dim == 3

    def test_covering_pairs_cube3(self):
        lat = lattice_of("cube", 3)
        pairs = lat.covering_pairs
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

    def test_duplicate_ids_rejected(self):
        v = Face((0,), 0)
        with pytest.raises(PolytopeError):
            FaceLattice(1, [Face((), -1), v, v, Face((0, 1), 1)])


class TestPolarDual:
    def test_cube3_dual_is_octahedron(self):
        d, _ = polar_dual(cube(3))
        assert lattice_of_dual(d).f_vector == (6, 12, 8)
        coords = {v.coords for v in d.vertices}
        assert coords == {
            (F(2), F(0), F(0)), (F(-2), F(0), F(0)),
            (F(0), F(2), F(0)), (F(0), F(-2), F(0)),
            (F(0), F(0), F(2)), (F(0), F(0), F(-2)),
        }

    def test_triangle_dual_is_triangle(self):
        d, _ = polar_dual(simplex(2))
        assert d.n_vertices == 3
        assert lattice_of_dual(d).f_vector == (3, 3)

    def test_dual_face_map_reverses_inclusion(self):
        p = cube(3)
        _, facet_faces = polar_dual(p)
        delta = dual_face_map(facet_faces)
        lat = face_lattice(p)
        assert set(delta(lat.face("v0"))) == {0, 1, 2}
        assert delta(lat.full_face) == ()
        assert len(delta(lat.empty_face)) == 6
        for a in lat.faces:
            for b in lat.faces:
                if set(a.vertex_set) <= set(b.vertex_set):
                    assert set(delta(b)) <= set(delta(a))

    def test_anti_isomorphism_random_3_polytope(self):
        p = random_polytope(3, 7, seed=5)
        lat = face_lattice(p)
        d, facet_faces = polar_dual(p)
        dlat = face_lattice(d)
        delta = dual_face_map(facet_faces)
        # image sets must be exactly the dual faces, counted once each
        images = {}
        for f in lat.faces:
            img = delta(f)
            assert img not in images.values() or f.id in images
            images[f.id] = img
        dual_sets = {f.vertex_set for f in dlat.faces}
        assert set(images.values()) == dual_sets
        assert len(images) == len(dlat.faces)
        for f in lat.faces:
            assert dlat.face_of_set(images[f.id]).dim == lat.dim - 1 - f.dim
        assert lattice_anti_isomorphic(p)

    def test_anti_isomorphism_standard_families(self):
        for fam, d in [("cube", 3), ("cross", 3), ("simplex", 4)]:
            p, _ = instance(fam, d)
            assert lattice_anti_isomorphic(p)


def lattice_of_dual(p: VPolytope) -> FaceLattice:
    return face_lattice(p)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        p = cyclic(3, 6)
        text = format_polytope(p)
        again = parse_polytope(text)
        assert again.vertices == p.vertices
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
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(PolytopeError):
            parse_polytope(text)

    def test_fractional_coordinates(self):
        text = "polytope 2 3\n0 0\n1 0\n1/2 3/2\n"
        p = parse_polytope(text)
        assert p.vertices[2].coords == (F(1, 2), F(3, 2))
