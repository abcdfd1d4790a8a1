"""Ridge path construction via recursive sections, and its verifier."""

import json
import random
from functools import lru_cache
from itertools import permutations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelab import ridgepath
from facelab.cli import build_parser
from facelab.generators import random_polytope
from facelab.geometry import eliminate, interior_point
from facelab.hypergraph import (
    ConnectivityReport,
    FaceHypergraph,
    build_hypergraph,
    strong_connectivity,
)
from facelab.polytope import VPolytope, facets, indices_of, load_polytope, mask_of, polar_dual
from facelab.ridgepath import (
    BlockedSet,
    RidgePath,
    RidgePathError,
    _bfs_ridge_path,
    _clear_grazed_vertices,
    search_cutting_hyperplane,
    solve_ridge_path,
    verify_ridge_path,
)
from facelab.symmetry import orbit_representatives
from instances import (
    FAMILY_GRID,
    GOLDEN,
    classical,
    golden_random_polytopes,
    instance,
    polytope,
)
from oracles import (
    bfs_ridge_path_oracle,
    coordinates,
    cutting_hyperplane_oracle,
    first_component_oracle,
    hyperplane_conditions_oracle,
    side,
)
from test_golden import CASES as GOLDEN_CASES


def oracle_ok(p, lattice, f, g, r, h) -> bool:
    return hyperplane_conditions_oracle(
        p, f.vertex_set, g.vertex_set, r.vertex_set, h.row[1:], -h.row[0]
    )


class TestCuttingHyperplane:
    def test_square_edges(self):
        p, lat = instance("cube", 2)
        f, g, r = lat.face("v0-v1"), lat.face("v2-v3"), lat.face("v0-v2")
        h, attempts = search_cutting_hyperplane(p, f, g, r)
        assert attempts >= 1
        assert oracle_ok(p, lat, f, g, r, h)

    def test_cube_facets(self):
        p, lat = instance("cube", 3)
        f, g = lat.face("v0-v1-v2-v3"), lat.face("v4-v5-v6-v7")
        r = lat.face("v0-v1-v4-v5")
        h, _ = search_cutting_hyperplane(p, f, g, r)
        assert oracle_ok(p, lat, f, g, r, h)
        # the interior points of f and g really sit on the plane
        for face in (f, g):
            point = interior_point([p.rows[i] for i in face.vertex_set])
            assert side(h, coordinates(point)) == 0

    def test_deterministic(self):
        p, lat = instance("cube", 3)
        f, g, r = lat.face("v0-v1"), lat.face("v6-v7"), lat.face("v0-v2")
        assert search_cutting_hyperplane(p, f, g, r) == search_cutting_hyperplane(p, f, g, r)

    def test_validations(self):
        p, lat = instance("cube", 3)
        f, g, r = lat.face("v0-v1"), lat.face("v6-v7"), lat.face("v0-v2")
        with pytest.raises(RidgePathError):
            search_cutting_hyperplane(p, f, f, r)
        with pytest.raises(RidgePathError):
            search_cutting_hyperplane(p, f, g, lat.face("v0"))
        with pytest.raises(RidgePathError, match=r"^face dimension 0 out of range \[1, 2\]$"):
            search_cutting_hyperplane(p, lat.face("v0"), lat.face("v3"), lat.face("v5"))

    def test_infeasible_solve_is_reported_as_a_bug(self, monkeypatch):
        """The closed form always finds its facet row for a valid triple; if
        it did not, the search says so instead of returning a plane."""
        monkeypatch.setattr(ridgepath, "_closed_form_normal", lambda p, r, bf, bg: None)
        p, lat = instance("cube", 3)
        f, g, r = lat.face("v0-v1"), lat.face("v6-v7"), lat.face("v0-v2")
        with pytest.raises(RidgePathError, match="one always exists, so this is a bug$"):
            search_cutting_hyperplane(p, f, g, r)

    def test_random_triples_all_verified(self):
        rng = random.Random(71)
        for fam, d in [("cube", 3), ("cross", 3)]:
            p, lat = instance(fam, d)
            for trial in range(25):
                k = rng.randint(1, d - 1)
                faces = lat.faces_of_dim(k)
                f, g, r = rng.sample(faces, 3)
                h, attempts = search_cutting_hyperplane(p, f, g, r)
                # The closed form, plus at most m (D - 1) + 1 moment-curve
                # directions, m <= n - |r| the vertices on its plane.
                grazed = len(p.rows) - len(r.vertex_set)
                assert 1 <= attempts <= 2 + grazed * (p.ambient_dim - 1)
                assert oracle_ok(p, lat, f, g, r, h)

    def test_nudge_skips_a_grazing_direction(self):
        # u0(1) = (1, 1, 1) projects to (1, 1, 0), which grazes the offender
        # (1, -1, 0); u0(2) = (1, 2, 4) projects to (1, 2, 0), which clears
        # it.  The step is 1 / (2 (1 + 1)) off the one other vertex.
        w = ([0, 0, 1], 1)
        diffs = [([1, -1, 0], 1), ([1, 0, 0], 1)]
        a = [1, 1, 0]
        nudged, tried = _clear_grazed_vertices(w, diffs, a)
        assert (nudged, tried) == ([5, 6, 0], 2)
        assert [sum(x * y for x, y in zip(nudged, v)) for v, _ in diffs] == [-1, 5]
        assert _clear_grazed_vertices(w, diffs[1:], a) == (a, 0)


class TestCuttingHyperplaneAgainstOracle:
    """The search against its Fraction route, plane and attempt count."""

    @staticmethod
    def seeded_triples():
        """(trial, p, lattice, f, g, r) for the battery's 400 seeded draws."""
        cases = [
            instance("cube", 4),
            instance("cross", 4),
            instance("pyramid", 4),
            instance("prism", 5),
            instance("cyclic", 4, n=8),
        ]
        rng = random.Random(1)
        for trial in range(400):
            p, lat = cases[trial % len(cases)]
            k = rng.randint(1, lat.dim - 1)
            f, g, r = rng.sample(lat.faces_of_dim(k), 3)
            # This draw once seeded the nudge; it keeps the triples unchanged.
            rng.randrange(1000)
            yield trial, p, lat, f, g, r

    def test_seeded_battery(self):
        nudged = 0
        for trial, p, lat, f, g, r in self.seeded_triples():
            expected = cutting_hyperplane_oracle(p, f, g, r)
            if expected is None:
                with pytest.raises(RidgePathError):
                    search_cutting_hyperplane(p, f, g, r)
                continue
            h, attempts = search_cutting_hyperplane(p, f, g, r)
            assert (h.row, attempts) == expected, (trial, f.id, g.id, r.id)
            assert oracle_ok(p, lat, f, g, r, h)
            grazed = len(p.rows) - len(r.vertex_set)
            assert attempts <= 2 + grazed * (p.ambient_dim - 1)
            nudged += attempts > 1
        assert nudged >= 20

    def test_closed_form_returns_the_normal_of_a_plane_through_bf(self):
        """On the battery's triples the closed form's normal has D entries;
        its plane through bf holds bg and puts every vertex of r strictly on
        one side.  Both branches occur: the line through bf and bg parallel
        to C.x = 0, where the normal is C', and not."""
        parallel = []
        for _, p, _, f, g, r in self.seeded_triples():
            bf, bg = (interior_point([p.rows[i] for i in x.vertex_set]) for x in (f, g))
            normal = ridgepath._closed_form_normal(p, r, bf, bg)
            assert len(normal) == p.ambient_dim
            along = [bf[0] * y - bg[0] * x for x, y in zip(bf[1:], bg[1:])]
            assert sum(map(mul, normal, along)) == 0
            plane = [-sum(map(mul, normal, bf[1:])), *(bf[0] * a for a in normal)]
            values = [sum(map(mul, plane, p.rows[i])) for i in r.vertex_set]
            assert all(values) and len({v > 0 for v in values}) == 1
            on_r = [row for mask, row in p.facet_rows.items() if r.mask & ~mask == 0]
            c = [sum(column) for column in zip(*on_r)]
            parallel.append(sum(map(mul, c, bf)) * bg[0] == sum(map(mul, c, bg)) * bf[0])
        assert 0 < sum(parallel) < len(parallel)


class TestPlaneBitLength:
    """The largest plane coefficient of deep requests, pinned.  Each level's
    normal combines facet rows that every slice keeps from the base, and its
    plane goes through the row sums of the endpoints' vertex rows, so no lcm
    of the slice vertices' x0 multiplies the coefficients from one level to
    the next.  They still grow with the slice vertices' own entries, about
    2-3 times in bits per level."""

    def test_cyclic_7_14_at_k_6(self):
        p, lat = instance("cyclic", 7, n=14)
        k = 6
        faces = [f.id for f in lat.faces_of_dim(k)]
        rng = random.Random(5)
        depths, bits = [], []
        for _ in range(2):
            blocked = rng.sample(faces, k)
            f_id, g_id = rng.sample([x for x in faces if x not in blocked], 2)
            b = BlockedSet.of(k, blocked)
            res = solve_ridge_path(p, b, f_id, g_id)
            assert verify_ridge_path(lat, k, b, res.path, f_id, g_id)
            depths.append(res.depth)
            bits.append(max(abs(c).bit_length() for h in res.hyperplanes for c in h.row))
        # The largest coefficient's bit length, pinned; the inputs have 27.
        assert (depths, bits) == ([5, 3], [1429, 172])


class TestSolver:
    def test_identity_path(self):
        p, lat = instance("cube", 3)
        path = solve_ridge_path(p, BlockedSet.of(1, []), "v0-v1", "v0-v1").path
        assert path.faces == ("v0-v1",) and path.ridges == ()

    def test_vertex_path_uses_empty_ridge(self):
        p, lat = instance("cube", 3)
        b = BlockedSet.of(0, [])
        res = solve_ridge_path(p, b, "v0", "v7")
        assert res.path.faces == ("v0", "v7")
        assert res.path.ridges == ("empty",)
        assert verify_ridge_path(lat, 0, b, res.path, "v0", "v7") and res.depth == 0

    @pytest.mark.parametrize(
        "family, dim, n", [("cube", 3, None), ("pyramid", 4, None), ("cyclic", 4, 8)]
    )
    def test_vertex_paths_come_from_the_search(self, family, dim, n):
        # k = 0 blocks nothing, and any two vertices meet in the empty face.
        p, lat = instance(family, dim, n=n)
        b = BlockedSet.of(0, [])
        for f_id, g_id in permutations([v.id for v in lat.faces_of_dim(0)], 2):
            res = solve_ridge_path(p, b, f_id, g_id)
            assert res.path == RidgePath((f_id, g_id), ("empty",))
            assert res.depth == 0 and res.hyperplanes == ()
            assert verify_ridge_path(lat, 0, b, res.path, f_id, g_id)

    def test_edges_around_blocked_edge(self):
        p, lat = instance("cube", 3)
        b = BlockedSet.of(1, ["v0-v1"])
        res = solve_ridge_path(p, b, "v0-v2", "v1-v3")
        assert verify_ridge_path(lat, 1, b, res.path, "v0-v2", "v1-v3")
        assert "v0-v1" not in res.path.faces
        assert res.depth == 0 and res.hyperplanes == ()

    def test_facets_around_blocked_pair_uses_section(self):
        p, lat = instance("cube", 3)
        b = BlockedSet.of(2, ["v0-v1-v4-v5", "v2-v3-v6-v7"])
        res = solve_ridge_path(p, b, "v0-v1-v2-v3", "v4-v5-v6-v7")
        assert res.depth == 1 and len(res.hyperplanes) == 1
        assert verify_ridge_path(lat, 2, b, res.path, "v0-v1-v2-v3", "v4-v5-v6-v7")

    def test_all_blocked_pairs_on_cube3_facets(self):
        from itertools import combinations

        p, lat = instance("cube", 3)
        facet_ids = [f.id for f in lat.faces_of_dim(2)]
        count = 0
        for blocked in combinations(facet_ids, 2):
            rest = [fid for fid in facet_ids if fid not in blocked]
            for f_id, g_id in combinations(rest, 2):
                b = BlockedSet.of(2, blocked)
                res = solve_ridge_path(p, b, f_id, g_id)
                assert verify_ridge_path(lat, 2, b, res.path, f_id, g_id), (blocked, f_id, g_id)
                count += 1
        assert count == 90

    def test_matches_bfs_reachability(self):
        rng = random.Random(97)
        p, lat = instance("cross", 3)
        for trial in range(20):
            k = 2
            faces = [f.id for f in lat.faces_of_dim(k)]
            blocked = rng.sample(faces, 2)
            rest = [fid for fid in faces if fid not in blocked]
            f_id, g_id = rng.sample(rest, 2)
            oracle = bfs_ridge_path_oracle(lat, k, set(blocked), f_id, g_id)
            assert oracle is not None
            b = BlockedSet.of(k, blocked)
            res = solve_ridge_path(p, b, f_id, g_id)
            assert verify_ridge_path(lat, k, b, res.path, f_id, g_id)

    def test_plain_search_finds_the_oracle_path(self):
        # Edge paths and unblocked paths need no section: the solver's
        # breadth-first search must return exactly the oracle's path.
        rng = random.Random(59)
        for family, d, n in FAMILY_GRID:
            p, lat = instance(family, d, n=n)
            for k in sorted({1, d - 1}):
                faces = [f.id for f in lat.faces_of_dim(k)]
                for _ in range(8):
                    blocked = rng.sample(faces, 1) if k == 1 and len(faces) > 3 else []
                    f_id, g_id = rng.sample([x for x in faces if x not in blocked], 2)
                    expected = bfs_ridge_path_oracle(lat, k, set(blocked), f_id, g_id)
                    res = solve_ridge_path(p, BlockedSet.of(k, blocked), f_id, g_id)
                    assert list(res.path.faces) == expected, (family, d, k, blocked, f_id, g_id)

    def test_request_validation(self):
        p, lat = instance("cube", 3)
        with pytest.raises(RidgePathError):
            solve_ridge_path(p, BlockedSet.of(1, []), "v0-v1", "v0-v9")
        with pytest.raises(RidgePathError):
            solve_ridge_path(p, BlockedSet.of(1, []), "v0", "v1")
        with pytest.raises(RidgePathError):
            solve_ridge_path(p, BlockedSet.of(1, ["v0-v1"]), "v0-v1", "v2-v3")
        with pytest.raises(RidgePathError, match=r"^k=3 out of range \[0, 2\]$"):
            solve_ridge_path(p, BlockedSet.of(3, []), "v0-v1", "v2-v3")

    def test_malformed_blocked_ids_are_unknown(self):
        # Blocked ids are looked up in sorted order, so the error does not
        # depend on set iteration order, and no index is converted unbounded;
        # a long id is quoted by its first 40 chars and its length.
        p, lat = instance("cube", 3)
        huge = "v" + "9" * 5000
        excerpt = "'v" + "9" * 39 + "'... (5001 chars)"
        for blocked, quoted in ((["x3", "v1-v0"], "'v1-v0'"), ([huge], excerpt)):
            b = BlockedSet.of(2, blocked)
            with pytest.raises(RidgePathError) as exc:
                solve_ridge_path(p, b, "v0-v1-v4-v5", "v0-v1-v2-v3")
            assert str(exc.value) == f"unknown face id {quoted}"

    def test_blocked_set_size_limit(self):
        with pytest.raises(RidgePathError):
            BlockedSet.of(1, ["v0-v1", "v2-v3"])

    def test_negative_k_is_out_of_range(self):
        # The range check comes before the budget, which k = -1 fails too.
        with pytest.raises(RidgePathError, match=r"^k=-1 out of range: k must be at least 0$"):
            BlockedSet.of(-1, [])

    def test_repeated_blocked_id_is_refused(self):
        # A repeat is most likely a typo for another face; the budget check,
        # which counts distinct ids, comes first.
        with pytest.raises(RidgePathError, match=r"^blocked face 'v0-v1' is listed twice$"):
            BlockedSet.of(2, ["v0-v1", "v2-v3", "v0-v1"])
        with pytest.raises(RidgePathError, match=r"^blocked set of size 2 exceeds"):
            BlockedSet.of(1, ["v0-v1", "v2-v3", "v0-v1"])


class TestRecursionInvariant:
    """Each nested `_solve` call, seen through a spy, gets a smaller blocked
    set than its caller, faces one dimension down, and distinct, unblocked
    endpoints: what makes |B| <= k bottom out in a plain search.  Each of
    those faces is a face of the lattice of the polytope the call gets."""

    @pytest.fixture()
    def depths(self, monkeypatch):
        real = ridgepath._solve
        stack = []  # (number of blocked faces, k) per call in progress
        depths = []

        def spy(p, blocked, f, g):
            assert {x.dim for x in (g, *blocked)} <= {f.dim} and len(blocked) <= f.dim
            assert all(p.lattice.face_of_mask(x.mask) == x for x in (f, g, *blocked))
            if stack:
                caller_blocked, caller_k = stack[-1]
                assert len(blocked) < caller_blocked and f.dim == caller_k - 1
                assert f != g and f not in blocked and g not in blocked
            depths.append(len(stack))
            stack.append((len(blocked), f.dim))
            try:
                return real(p, blocked, f, g)
            finally:
                stack.pop()

        monkeypatch.setattr(ridgepath, "_solve", spy)
        return depths

    def test_family_grid(self, depths):
        rng = random.Random(211)
        for family, d, n in FAMILY_GRID:
            p, lat = instance(family, d, n=n)
            for k in range(1, d):
                faces = [x.id for x in lat.faces_of_dim(k)]
                for _ in range(3):
                    blocked = rng.sample(faces, k)
                    f_id, g_id = rng.sample([x for x in faces if x not in blocked], 2)
                    b = BlockedSet.of(k, blocked)
                    res = solve_ridge_path(p, b, f_id, g_id)
                    assert verify_ridge_path(lat, k, b, res.path, f_id, g_id)
        assert max(depths) == 2

    def test_golden_queries(self, depths):
        solved = 0
        for case, argv in GOLDEN_CASES.items():
            out = json.loads((GOLDEN / f"{case}.out").read_text(encoding="utf-8"))
            if argv[:1] != ["ridge-path"] or out["status"] != "ok":
                continue
            ns = build_parser().parse_args(argv)
            p = load_polytope(str(GOLDEN / ns.file))
            b = BlockedSet.of(ns.k, [x for x in ns.blocked.split(",") if x])
            res = solve_ridge_path(p, b, ns.from_id, ns.to_id)
            assert list(res.path.faces) == out["output"]["path"], case
            solved += 1
        assert solved == 8 and max(depths) == 2


class TestVerifier:
    def setup_method(self):
        self.p, self.lat = instance("cube", 3)

    def good(self) -> RidgePath:
        b = BlockedSet.of(1, ["v0-v1"])
        return solve_ridge_path(self.p, b, "v0-v2", "v1-v3").path

    def test_good_path_verifies(self):
        path = self.good()
        assert verify_ridge_path(self.lat, 1, BlockedSet.of(1, ["v0-v1"]), path, "v0-v2", "v1-v3")

    def test_wrong_endpoints(self):
        path = self.good()
        assert not verify_ridge_path(
            self.lat, 1, BlockedSet.of(1, ["v0-v1"]), path, "v0-v2", "v5-v7"
        )

    def test_path_through_blocked_face_rejected(self):
        path = RidgePath(faces=("v0-v2", "v0-v1", "v1-v3"), ridges=("v0", "v1"))
        assert not verify_ridge_path(
            self.lat, 1, BlockedSet.of(1, ["v0-v1"]), path, "v0-v2", "v1-v3"
        )

    def test_wrong_ridge_rejected(self):
        # v0-v2 and v1-v3 do not share a vertex, so no single step joins them
        path = RidgePath(faces=("v0-v2", "v1-v3"), ridges=("v0",))
        assert not verify_ridge_path(
            self.lat, 1, BlockedSet.of(1, []), path, "v0-v2", "v1-v3"
        )

    def test_ridge_inside_blocked_face_rejected(self):
        # path v0-v2 -> v0-v1 is legal only if ridge v0 avoids blocked faces;
        # block a face containing vertex v0 and require rejection
        path = RidgePath(faces=("v0-v2", "v0-v4"), ridges=("v0",))
        b = BlockedSet.of(1, ["v0-v1"])
        assert not verify_ridge_path(self.lat, 1, b, path, "v0-v2", "v0-v4")

    def test_unknown_ids_rejected(self):
        path = RidgePath(faces=("v0-v2", "v0-v9"), ridges=("v0",))
        assert not verify_ridge_path(
            self.lat, 1, BlockedSet.of(1, []), path, "v0-v2", "v0-v9"
        )

    def test_wrong_face_dim_rejected(self):
        path = RidgePath(faces=("v0-v1-v2-v3", "v0-v1-v4-v5"), ridges=("v0-v1",))
        assert not verify_ridge_path(
            self.lat, 1, BlockedSet.of(1, []), path, "v0-v1-v2-v3", "v0-v1-v4-v5"
        )

    def test_repeated_face_rejected(self):
        path = RidgePath(faces=("v0-v2", "v0-v2"), ridges=("v0",))
        assert not verify_ridge_path(
            self.lat, 1, BlockedSet.of(1, []), path, "v0-v2", "v0-v2"
        )

    def test_blocked_set_for_another_k_rejected(self):
        b = BlockedSet.of(2, ["v0-v1-v2-v3"])
        assert not verify_ridge_path(self.lat, 1, b, self.good(), "v0-v2", "v1-v3")

    def test_blocked_face_of_wrong_dimension_rejected(self):
        b = BlockedSet.of(1, ["v0"])
        assert not verify_ridge_path(self.lat, 1, b, self.good(), "v0-v2", "v1-v3")

    def test_k_the_solver_refuses_rejected(self):
        # The polytope is its own one 3-face, but ridge paths stop at facets.
        full = "-".join(f"v{i}" for i in range(8))
        b = BlockedSet.of(3, [])
        with pytest.raises(RidgePathError, match=r"^k=3 out of range \[0, 2\]$"):
            solve_ridge_path(self.p, b, full, full)
        assert not verify_ridge_path(self.lat, 3, b, RidgePath((full,), ()), full, full)

    @pytest.mark.parametrize(
        "path",
        [
            RidgePath(faces=(), ridges=()),
            RidgePath(faces=("v0-v2", "v2-v3", "v1-v3"), ridges=("v2",)),
        ],
        ids=["empty", "ridge count"],
    )
    def test_malformed_path_rejected(self, path):
        b = BlockedSet.of(1, ["v0-v1"])
        assert not verify_ridge_path(self.lat, 1, b, path, "v0-v2", "v1-v3")


def test_slices_take_their_dimension_from_their_lattice(monkeypatch):
    """A depth-2 solve bounds k on the slice by the dim `section` set with
    its lattice, so it runs no elimination once the polytope is loaded."""
    p, lat = instance("cube", 4)
    blocked = [x.id for x in lat.faces_of_dim(3)][:3]
    eliminated = []

    def spy(rows):
        eliminated.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr("facelab.polytope.eliminate", spy)
    f, g = "v0-v2-v4-v6-v8-v10-v12-v14", "v1-v3-v5-v7-v9-v11-v13-v15"
    res = solve_ridge_path(p, BlockedSet.of(3, blocked), f, g)
    assert len(res.hyperplanes) == 2 and eliminated == []


class TestRandomInstances:
    def test_seeded_battery(self):
        rng = random.Random(131)
        cases = [
            instance("cube", 3),
            instance("cross", 3),
            instance("simplex", 3),
            instance("cyclic", 3, n=6),
        ]
        for trial in range(12):
            p, lat = cases[trial % len(cases)]
            k = 2
            faces = [f.id for f in lat.faces_of_dim(k)]
            if len(faces) < k + 2:
                continue
            blocked = rng.sample(faces, k)
            rest = [fid for fid in faces if fid not in blocked]
            f_id, g_id = rng.sample(rest, 2)
            if bfs_ridge_path_oracle(lat, k, set(blocked), f_id, g_id) is None:
                continue
            b = BlockedSet.of(k, blocked)
            res = solve_ridge_path(p, b, f_id, g_id)
            assert verify_ridge_path(lat, k, b, res.path, f_id, g_id)

    def test_cube4_with_three_blocked_facets(self):
        p, lat = instance("cube", 4)
        facet_ids = [f.id for f in lat.faces_of_dim(3)]
        b = BlockedSet.of(3, facet_ids[1:4])
        f_id, g_id = facet_ids[0], facet_ids[-1]
        res = solve_ridge_path(p, b, f_id, g_id)
        assert verify_ridge_path(lat, 3, b, res.path, f_id, g_id)
        assert res.depth >= 1

    def test_random_4_polytope(self):
        p = random_polytope(4, 7, seed=6)
        lat = p.lattice
        faces = [f.id for f in lat.faces_of_dim(2)]
        rng = random.Random(3)
        blocked = rng.sample(faces, 2)
        rest = [fid for fid in faces if fid not in blocked]
        f_id, g_id = rng.sample(rest, 2)
        if bfs_ridge_path_oracle(lat, 2, set(blocked), f_id, g_id) is not None:
            b = BlockedSet.of(2, blocked)
            res = solve_ridge_path(p, b, f_id, g_id)
            assert verify_ridge_path(lat, 2, b, res.path, f_id, g_id)


@lru_cache(maxsize=None)
def dual_of(p: VPolytope) -> VPolytope:
    return polar_dual(p)


def ridge_components(p: VPolytope, k: int, blocked: list) -> set[frozenset[int]]:
    """The components of the blocked ridge graph of p's k-faces, as sets of
    face masks, found with the solver's own search."""
    components: list[list] = []
    for f in p.lattice.faces_of_dim(k):
        if f in blocked:
            continue
        for component in components:
            if _bfs_ridge_path(p.lattice, blocked, component[0], f) is not None:
                component.append(f)
                break
        else:
            components.append([f])
    return {frozenset(f.mask for f in component) for component in components}


def dual_hypergraph(p: VPolytope, k: int):
    """H_{d-1-k} of p's polar dual, and per node the mask of the k-face of p
    it is the image of.

    A k-face F maps to the dual face on the facets of p that contain F;
    dual vertex j is facet j in `facets(p)` order.
    """
    facet_masks = [f.mask for f, _ in facets(p)]

    def image(mask: int) -> int:
        return mask_of(j for j, m in enumerate(facet_masks) if mask & ~m == 0)

    hg = build_hypergraph(dual_of(p).lattice, p.lattice.dim - 1 - k)
    node = {f.mask: i for i, f in enumerate(hg.faces)}
    pullback = {node[image(f.mask)]: f.mask for f in p.lattice.faces_of_dim(k)}
    assert len(pullback) == hg.n_nodes
    return hg, pullback


def dual_components(p: VPolytope, k: int, blocked: list) -> set[frozenset[int]]:
    """The components of H_{d-1-k} of p's polar dual minus the images of the
    blocked faces, pulled back to p's k-faces."""
    hg, pullback = dual_hypergraph(p, k)
    node = {mask: i for i, mask in pullback.items()}
    # A component is closed under live hyperedges, so removing it as well
    # leaves the other components as they were.
    seen = mask_of(node[b.mask] for b in blocked)
    components = set()
    while seen != (1 << hg.n_nodes) - 1:
        component = first_component_oracle(hg.n_nodes, hg.edges, seen)
        components.add(frozenset(pullback[i] for i in indices_of(component)))
        seen |= component
    return components


def assert_ridge_graph_is_dual_hypergraph(p: VPolytope, k: int, blocked: list) -> None:
    assert ridge_components(p, k, blocked) == dual_components(p, k, blocked), (
        k,
        [b.id for b in blocked],
    )


def assert_on_seeded_blocked_sets(p: VPolytope, seed: int, sizes) -> None:
    """For every k, one seeded blocked set of each size in sizes(k), or of
    all k-faces when there are fewer."""
    rng = random.Random(seed)
    for k in range(p.lattice.dim):
        faces = p.lattice.faces_of_dim(k)
        for size in sizes(k):
            blocked = rng.sample(faces, min(size, len(faces)))
            assert_ridge_graph_is_dual_hypergraph(p, k, blocked)


class TestRidgeGraphIsDualHypergraph:
    """The blocked ridge graph of k-faces of P, which the solver searches,
    against H_{d-1-k} of the polar dual minus the blocked faces' images,
    which the connectivity scan certifies: under the facet-incidence face
    map their components agree, for blocked sets within the budget k and
    above it.  A ridge dies inside a blocked face exactly when its dual
    hyperedge holds a removed node."""

    @pytest.mark.parametrize("family,dim,n", FAMILY_GRID)
    def test_family_grid(self, family, dim, n):
        assert_on_seeded_blocked_sets(polytope(family, dim, n), dim, lambda k: range(k + 3))

    def test_golden_random_polytopes(self):
        for seed, p in enumerate(golden_random_polytopes()):
            assert_on_seeded_blocked_sets(p, seed, lambda k: (k, k + 2))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_drawn_blocked_sets(self, data):
        p = polytope(*data.draw(st.sampled_from(FAMILY_GRID)))
        k = data.draw(st.integers(0, p.lattice.dim - 1))
        faces = p.lattice.faces_of_dim(k)
        picks = data.draw(st.sets(st.sampled_from(range(len(faces))), max_size=k + 3))
        assert_ridge_graph_is_dual_hypergraph(p, k, [faces[i] for i in sorted(picks)])


# Per polytope, for k = 1, 2, ...: the largest blocked set of k-faces that
# every ridge-path request survives, alpha(H_{d-1-k}(P*)) - 1.  It exceeds
# the solver's budget k on cube3 and cube4 from k = 2, and on pyramid4 at k = 3.
RIDGE_BUDGETS = [
    ("cube", 3, None, (1, 3)),
    ("cube", 4, None, (1, 3, 5)),
    ("cross", 3, None, (1, 2)),
    ("cross", 4, None, (1, 2, 3)),
    ("prism", 4, None, (1, 2, 3)),
    ("cyclic", 4, 8, (1, 2, 3)),
    ("pyramid", 4, None, (1, 2, 4)),
    ("simplex", 4, None, (1, 2)),
]

# The same budgets for the classical instances of `instances.CLASSICAL`.
# On these rows and on RIDGE_BUDGETS each is the fewest (k-1)-faces of a
# k-face, minus one.
CLASSICAL_BUDGETS = {
    "hypersimplex(5,2)": (1, 2, 3),
    "hypersimplex(6,2)": (1, 2, 3, 4),
    "hypersimplex(6,3)": (1, 2, 3, 9),
    "permutahedron(4)": (1, 3),
    "permutahedron(5)": (1, 3, 7),
    "24-cell": (1, 2, 7),
    "birkhoff(3)": (1, 2, 3),
}


def downward_hypergraph(p: VPolytope, k: int) -> FaceHypergraph:
    """D_k, for 1 <= k <= d - 1: the k-faces are its nodes, and each
    (k-1)-face R gives the hyperedge of the k-faces above R.  Removing a
    blocked face kills exactly the ridges inside it, so D_k minus a blocked
    set is the ridge graph the solver searches.  An automorphism maps D_k
    onto itself, so the scan may skip sets by the polytope's group."""
    faces = p.lattice.faces_of_dim(k)
    index = {f.mask: i for i, f in enumerate(faces)}
    edges = tuple(
        mask_of(index[q.mask] for q in p.lattice.parents(r))
        for r in p.lattice.faces_of_dim(k - 1)
    )
    representatives = orbit_representatives(p.lattice.automorphisms, list(index))
    return FaceHypergraph(k, tuple(faces), edges, representatives)


class TestExactRidgeBudgets:
    @pytest.mark.parametrize("family,dim,n,budgets", RIDGE_BUDGETS)
    def test_budget_is_dual_alpha_minus_one(self, family, dim, n, budgets):
        p = polytope(family, dim, n)
        for k, budget in enumerate(budgets, start=1):
            hg, pullback = dual_hypergraph(p, k)
            report = strong_connectivity(hg, budget + 2)
            assert (report.alpha, report.capped) == (budget + 1, False), k
            # Read back in P, the witness is a blocked set that splits the
            # ridge graph the solver searches.
            nodes = hg.nodes
            blocked = [
                p.lattice.face_of_mask(pullback[nodes.index(fid)])
                for fid in report.witness.removed
            ]
            assert len(ridge_components(p, k, blocked)) > 1, k

    def test_complete_dual_graph_survives_all_but_the_endpoints(self):
        # simplex4 at k = 3: the dual of its facets is the complete graph on
        # five vertices, so blocking any three facets leaves the other two
        # joined.
        hg, _ = dual_hypergraph(polytope("simplex", 4), 3)
        cap = hg.n_nodes - 1
        assert strong_connectivity(hg, cap) == ConnectivityReport(0, cap, True, None)

    @pytest.mark.parametrize(
        "key, budgets",
        [((family, dim, n), budgets) for family, dim, n, budgets in RIDGE_BUDGETS]
        + list(CLASSICAL_BUDGETS.items()),
        ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value)),
    )
    def test_downward_budget_is_the_dual_budget(self, key, budgets):
        """alpha(D_k) - 1 is the budget, as alpha(H_{d-1-k}(P*)) - 1 is, and
        D_k's witness splits the ridge graph."""
        p = classical(key) if isinstance(key, str) else polytope(*key)
        for k, budget in enumerate(budgets, start=1):
            fewest = min(len(p.lattice.children(f)) for f in p.lattice.faces_of_dim(k))
            assert fewest - 1 == budget, k
            report = strong_connectivity(downward_hypergraph(p, k), budget + 2)
            assert (report.alpha, report.capped) == (budget + 1, False), k
            dual = strong_connectivity(dual_hypergraph(p, k)[0], budget + 2)
            assert (dual.alpha, dual.capped) == (report.alpha, False), k
            blocked = [p.lattice.face(fid) for fid in report.witness.removed]
            assert len(ridge_components(p, k, blocked)) > 1, k
