"""Hyperplane sections: slice construction and the induced face map."""

import random
from fractions import Fraction
from operator import mul

import pytest

from facelab import cli, ridgepath
from facelab.generators import cube, random_polytope, simplex
from facelab.geometry import Hyperplane, QVector
from facelab.polytope import (
    FaceLattice,
    PolytopeError,
    VPolytope,
    _double_description as double_description,
    _maximal,
    mask_of,
    parse_polytope,
)
from facelab.ridgepath import BlockedSet, solve_ridge_path
from facelab.section import SectionError, parse_hyperplane, section
from instances import (
    FAMILY_GRID,
    GOLDEN,
    instance,
    polytope,
    random_cutting_plane,
    section_battery,
)
from oracles import (
    affine_rank,
    assert_section_isomorphism,
    euler_characteristic_holds,
    rational_points,
    segment_hyperplane_intersection,
    side,
    slice_lattice_oracle,
)
from test_golden import CASES

F = Fraction


def plane(text: str) -> Hyperplane:
    return Hyperplane.of(*parse_hyperplane(text))


class TestParseHyperplane:
    def test_examples(self):
        # Each rational as its reduced (numerator, denominator) pair.
        assert parse_hyperplane("1,0,0;1/2") == ([(1, 1), (0, 1), (0, 1)], (1, 2))
        assert parse_hyperplane("-2, 3 ; 0") == ([(-2, 1), (3, 1)], (0, 1))
        assert parse_hyperplane("2/4,-3/6;1/10") == ([(1, 2), (-1, 2)], (1, 10))
        assert plane("2/4,-3/6;1/10").row == (-1, 5, -5)

    @pytest.mark.parametrize("text", ["", "1,2", "1,2;3;4", "a,b;c", "0,0;1"])
    def test_rejects_malformed(self, text):
        with pytest.raises(SectionError):
            parse_hyperplane(text)


class TestCutsFace:
    def test_cube_examples(self):
        p, lat = instance("cube", 3)
        smap = section(p, plane("1,0,0;1/2"))
        assert lat.face("v0-v4").mask in smap.phi
        assert lat.full_face.mask in smap.phi
        assert lat.face("v0-v1-v2-v3").mask not in smap.phi

    def test_vertex_on_plane_is_an_error(self):
        p = polytope("cube", 3)
        h = plane("1,0,0;0")
        with pytest.raises(SectionError, match="vertex 0 lies on the hyperplane"):
            section(p, h)

    def test_agrees_with_edge_crossing_oracle(self):
        rng = random.Random(31)
        for fam, d in [("cube", 3), ("cross", 3)]:
            p, lat = instance(fam, d)
            points = rational_points(p)
            for _ in range(10):
                h = random_cutting_plane(p, rng)
                phi = section(p, h).phi
                edges = lat.faces_of_dim(1)
                for f in lat.faces:
                    if f.dim < 1:
                        continue
                    crossing_edge = any(
                        set(e.vertex_set) <= set(f.vertex_set)
                        and side(h, points[e.vertex_set[0]])
                        * side(h, points[e.vertex_set[1]])
                        == -1
                        for e in edges
                    )
                    assert (f.mask in phi) == crossing_edge


class TestSection:
    def test_cube_slice_is_square(self):
        p = polytope("cube", 3)
        smap = section(p, plane("1,0,0;1/2"))
        assert smap.slice_polytope.lattice.f_vector == (4, 4)
        assert smap.slice_polytope.n_vertices == 4
        h = plane("1,0,0;1/2")
        assert all(side(h, v) == 0 for v in rational_points(smap.slice_polytope))

    def test_simplex_slice_off_one_vertex_is_triangle(self):
        p = polytope("simplex", 3)
        smap = section(p, plane("1,1,1;1/2"))
        assert smap.slice_polytope.lattice.f_vector == (3, 3)

    def test_map_face_and_lift(self):
        p, lat = instance("cube", 3)
        smap = section(p, plane("1,0,0;1/2"))
        image = smap.phi[lat.face("v0-v1-v4-v5").mask]
        assert smap.slice_polytope.lattice.face_of_mask(image).dim == 1
        # The map is injective, so a slice face lifts to one base face.
        lifts = [lat.face_of_mask(base).id for base, sliced in smap.phi.items() if sliced == image]
        assert lifts == ["v0-v1-v4-v5"]
        assert lat.face("v0-v1-v2-v3").mask not in smap.phi
        assert lat.face("v0").mask not in smap.phi

    def test_full_battery_on_fixed_slices(self):
        for fam, d, text in [
            ("cube", 3, "1,0,0;1/2"),
            ("cube", 3, "1,1,1;3/2"),
            ("simplex", 3, "1,1,1;1/2"),
            ("cross", 3, "1,1,1;1/2"),
            ("cube", 4, "1,0,0,0;1/2"),
        ]:
            p = polytope(fam, d)
            h = plane(text)
            assert_section_isomorphism(p, h, section(p, h))

    def test_full_battery_on_random_pairs(self):
        rng = random.Random(47)
        for seed in range(5):
            p = random_polytope(3, 7, seed=seed)
            for _ in range(3):
                h = random_cutting_plane(p, rng)
                assert_section_isomorphism(p, h, section(p, h))

    def test_slice_dims_equal_affine_rank(self):
        # The slice lattice takes each dim from its base face; check it
        # against the affine rank of the slice points.
        for p, h in section_battery():
            smap = section(p, h)
            rows = smap.slice_polytope.rows
            for f in smap.slice_polytope.lattice.faces:
                assert f.dim == affine_rank([rows[i] for i in f.vertex_set]), f.id

    def test_section_of_a_section(self):
        p = polytope("cube", 4)
        first = section(p, plane("1,0,0,0;1/2"))
        inner = section(first.slice_polytope, plane("0,1,0,0;1/2")).slice_polytope.lattice
        assert inner.dim == 2
        assert euler_characteristic_holds(inner)

    def test_vertex_on_plane_rejected(self):
        p = polytope("cube", 3)
        with pytest.raises(SectionError):
            section(p, plane("1,0,0;0"))
        with pytest.raises(SectionError):
            section(p, plane("1,1,0;1"))

    def test_plane_missing_polytope_rejected(self):
        p = polytope("cube", 3)
        with pytest.raises(SectionError):
            section(p, plane("1,0,0;5"))

    def test_dim_mismatch_rejected(self):
        p = polytope("cube", 3)
        with pytest.raises(SectionError):
            section(p, Hyperplane.of([1, 0], F(1, 2)))


class TestSlicePointsAgainstOracle:
    def test_criterion_3_battery(self):
        """Homogeneous crossing rows against the Fraction line parameter."""
        for p, h in section_battery():
            lat = p.lattice
            smap = section(p, h)
            points = rational_points(p)
            sliced = smap.slice_polytope
            assert sliced.dim == lat.dim - 1
            edges = [(lat.face_of_mask(b), s) for b, s in smap.phi.items() if b.bit_count() == 2]
            assert sorted(s for _, s in edges) == [1 << i for i in range(sliced.n_vertices)]
            for edge, mask in edges:
                i = mask.bit_length() - 1
                a, b = edge.vertex_set
                point = segment_hyperplane_intersection(points[a], points[b], h)
                assert sliced.rows[i] == QVector.of(point).row


def assert_slice_matches_oracle(p, h):
    """The slice lattice `section` restricts from the base against two
    others: the one read off the base lattice's cut faces, and the one the
    facet sweep, passed as the cover rule here, builds from the slice's own
    double-description facets.  All three have the same faces and grades,
    and the same children and parents of every face, in order."""
    s = section(p, h).slice_polytope
    sliced = s.lattice
    faces, children, parents = slice_lattice_oracle(p, h)
    masks = list(VPolytope(s.rows).facet_rows)
    swept = FaceLattice(s.dim, s.n_vertices, lambda f: _maximal({f & g for g in masks if f & ~g}))
    assert list(sliced.faces) == faces == list(swept.faces)
    for k in range(-1, s.dim + 1):
        assert sliced.faces_of_dim(k) == [f for f in faces if f.dim == k] == swept.faces_of_dim(k)
    for f in faces:
        assert sliced.children(f) == children[f.mask] == swept.children(f)
        assert sliced.parents(f) == parents[f.mask] == swept.parents(f)


def deep_solve_sections(monkeypatch, p, k):
    """Every (polytope, plane, section) the ridge recursion makes while
    solving the first five `random.Random(5)` requests for k-faces of p."""
    met = []

    def recording(q, h):
        smap = section(q, h)
        met.append((q, h, smap))
        return smap

    monkeypatch.setattr(ridgepath, "section", recording)
    faces = [f.id for f in p.lattice.faces_of_dim(k)]
    rng = random.Random(5)
    for _ in range(5):
        blocked = rng.sample(faces, k)
        f_id, g_id = rng.sample([x for x in faces if x not in blocked], 2)
        solve_ridge_path(p, BlockedSet.of(k, blocked), f_id, g_id)
    monkeypatch.undo()
    return met


class TestSliceLatticeOracle:
    def test_section_battery(self):
        for p, h in section_battery():
            assert_slice_matches_oracle(p, h)

    @pytest.mark.parametrize("family,dim,n", FAMILY_GRID)
    def test_one_slice_per_family(self, family, dim, n):
        p = polytope(family, dim, n)
        assert_slice_matches_oracle(p, random_cutting_plane(p, random.Random(5)))

    def test_cube4_sliced_twice(self):
        p = polytope("cube", 4)
        h = plane("1,0,0,0;1/2")
        assert_slice_matches_oracle(p, h)
        assert_slice_matches_oracle(section(p, h).slice_polytope, plane("0,1,0,0;1/2"))

    @pytest.mark.parametrize("family,dim,n", [("cyclic", 6, 12), ("cross", 6, None)])
    def test_slices_met_in_deep_ridge_solves(self, family, dim, n, monkeypatch):
        """Every (polytope, plane) the ridge recursion slices while solving
        the first five `random.Random(5)` requests at k = 5, slices of slices
        down to depth 4 among them."""
        met = deep_solve_sections(monkeypatch, polytope(family, dim, n), 5)
        assert min(q.lattice.dim for q, _, _ in met) == dim - 3
        for q, h in dict.fromkeys((q, h) for q, h, _ in met):
            assert_slice_matches_oracle(q, h)

    @pytest.mark.parametrize(
        "text,cut",
        [
            ("polytope 1 2\n0\n1\n", "1;1/2"),
            ("polytope 2 3\n0 0\n1 0\n0 1\n", "1,1;1/2"),
        ],
        ids=["segment", "triangle"],
    )
    def test_lowest_grades(self, text, cut):
        p = parse_polytope(text)
        assert_slice_matches_oracle(p, plane(cut))

    def test_flat_slice_refuses_a_lattice_of_its_own(self):
        # The same rows without the lattice section set: `facets` refuses a
        # flat polytope, whose supporting planes are not unique, so no wrong
        # lattice comes back.
        s = section(polytope("cube", 3), plane("1,1,1;3/2")).slice_polytope
        bare = VPolytope(s.rows)
        assert bare == s
        with pytest.raises(PolytopeError, match="needs a full-dimensional polytope"):
            bare.lattice


class TestSliceRunsNoSweep:
    """A slice's faces come only from `phi`: once the base lattice is built,
    `section` runs no facet sweep, so a `_maximal` that raises is never
    reached.  Nor does a slice eliminate: it carries its dim and facet rows."""

    @staticmethod
    def refuse_sweeps(monkeypatch):
        def sweep(masks):
            raise AssertionError("section swept facets")

        monkeypatch.setattr("facelab.polytope._maximal", sweep)

    @pytest.mark.parametrize("family,dim,n", FAMILY_GRID)
    def test_one_plane_per_family(self, family, dim, n, monkeypatch):
        p = polytope(family, dim, n)
        h = random_cutting_plane(p, random.Random(5))
        p.lattice
        self.refuse_sweeps(monkeypatch)
        assert section(p, h).slice_polytope.lattice.dim == dim - 1

    def test_cube4_sliced_twice(self, monkeypatch):
        p = polytope("cube", 4)
        p.lattice
        self.refuse_sweeps(monkeypatch)
        first = section(p, plane("1,0,0,0;1/2")).slice_polytope
        second = section(first, plane("0,1,0,0;1/2")).slice_polytope
        assert second.lattice.f_vector == (4, 4)

    @pytest.mark.parametrize(
        "case", ["cube3.section", "cube3.ridge_path", "cross4.ridge_path_depth2"]
    )
    def test_golden_requests_need_no_cone_past_the_base(self, case, monkeypatch):
        """With the base loaded, `section` and `ridge-path --verify` requests
        give their golden bytes through `cli.run` while `_initial_cone`
        raises: no slice eliminates, for its dim or anything else.  The
        depth-2 request searches a cutting plane on a slice."""
        argv = CASES[case]
        base = parse_polytope((GOLDEN / argv[1]).read_text(encoding="utf-8"))
        base.lattice

        def cone(rows):
            raise AssertionError("a slice ran an elimination")

        monkeypatch.setattr("facelab.polytope._initial_cone", cone)
        monkeypatch.setattr("facelab.cli.load_polytope", lambda path: base)
        monkeypatch.chdir(GOLDEN)
        golden = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
        assert cli.run(argv).render() + "\n" == golden

    def test_depth_two_solve_runs_double_description_once(self, monkeypatch):
        """A slice takes its facet rows from `section`, so a depth-2 ridge
        solve runs double description once: on the base, to load it."""
        runs = []

        def spy(rows, cone):
            runs.append(rows)
            return double_description(rows, cone)

        monkeypatch.setattr("facelab.polytope._double_description", spy)
        p = cube(4)
        blocked = [x.id for x in p.lattice.faces_of_dim(3)][:3]
        f, g = "v0-v2-v4-v6-v8-v10-v12-v14", "v1-v3-v5-v7-v9-v11-v13-v15"
        res = solve_ridge_path(p, BlockedSet.of(3, blocked), f, g)
        assert res.depth == 2 and runs == [p.rows]


DEEP_SOLVES = [("cyclic", 6, 12, 5), ("cross", 6, None, 5), ("cube", 5, None, 4)]


class TestSliceFacetRows:
    """`section` gives a slice the rows of the base facets it cuts, under
    their images.  On every slice a deep ridge solve makes, they are the
    slice's own facets: the masks are those double description finds on the
    slice's rows and those of its lattice's facet grade, and each row is
    nonpositive on every slice vertex and zero exactly on its mask.  They are
    the base's rows, so they do not grow with depth."""

    @pytest.mark.parametrize("family,dim,n,k", DEEP_SOLVES)
    def test_slices_met_in_deep_ridge_solves(self, family, dim, n, k, monkeypatch):
        p = polytope(family, dim, n)
        met = deep_solve_sections(monkeypatch, p, k)
        assert max(p.lattice.dim - s.slice_polytope.lattice.dim for _, _, s in met) >= 3
        for _, _, smap in met:
            s = smap.slice_polytope
            assert "facet_rows" in s.__dict__
            rows = s.facet_rows
            swept = list(VPolytope(s.rows).facet_rows)
            grade = [f.mask for f in s.lattice.faces_of_dim(s.lattice.dim - 1)]
            assert sorted(rows) == sorted(swept) == sorted(grade)
            assert set(rows.values()) <= set(p.facet_rows.values())
            for mask, row in rows.items():
                values = [sum(map(mul, row, v)) for v in s.rows]
                assert max(values) <= 0
                assert mask_of(i for i, value in enumerate(values) if value == 0) == mask
