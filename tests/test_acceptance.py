"""End-to-end acceptance battery for the library's central guarantees.

Each test prints one PASS/FAIL line (undiverted by capture) so a release run
shows the verdict per criterion at a glance.  Zero tolerance throughout: every
comparison is exact.
"""

import json
import random
from collections import Counter
from contextlib import contextmanager
from itertools import combinations

from facelab.cli import run
from facelab.generators import random_polytope
from facelab.hypergraph import build_hypergraph, strong_connectivity
from facelab.polytope import save_polytope
from facelab.ridgepath import (
    BlockedSet,
    RidgePathError,
    search_cutting_hyperplane,
    solve_ridge_path,
    verify_ridge_path,
)
from facelab.section import section
from instances import FAMILY_GRID, instance, lattice_of, polytope, section_battery
from oracles import (
    assert_hypergraphs_are_dual,
    assert_section_isomorphism,
    bfs_ridge_path_oracle,
    connected_after_removal_oracle,
    euler_characteristic_holds,
    find_isolating_set,
    hyperplane_conditions_oracle,
)

SIMPLE_FAMILIES = {"simplex", "cube"}


@contextmanager
def criterion(capsys, number: int, label: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: PASS - {label}")


def grid_instances():
    for family, dim, n in FAMILY_GRID:
        p, lat = instance(family, dim, n=n)
        yield family, dim, p, lat


def test_criterion_1_connectivity_certification(capsys, tmp_path):
    """verify-theorem certifies strong (d-k)-connectivity of every H_k."""
    with criterion(capsys, 1, "exhaustive connectivity certification"):
        for family, dim, p, lat in grid_instances():
            path = str(tmp_path / f"{family}{dim}.poly")
            save_polytope(p, path)
            result = run(["verify-theorem", path])
            assert result.exit_code == 0, (family, dim, result.error)
            doc = json.loads(result.render())
            rows = doc["output"]["results"]
            assert [r["k"] for r in rows] == list(range(dim))
            for row in rows:
                assert row["bound"] == dim - row["k"]
                assert row["pass"] is True, (family, dim, row)
                assert row["alpha"] == row["bound"]


def test_criterion_2_cube_tightness(capsys):
    """Cubes meet the bound exactly: alpha = d-k, witnessed both ways."""
    with criterion(capsys, 2, "tightness on cubes"):
        for d in (2, 3, 4):
            lat = lattice_of("cube", d)
            for k in range(0, d - 1):
                hg = build_hypergraph(lat, k)
                nodes, hyperedges = list(hg.nodes), list(hg.hyperedges)
                for node in hg.nodes:
                    picks = find_isolating_set(hg, node)
                    assert picks is not None, (d, k, node)
                    assert len(picks) == d - k, (d, k, node, picks)
                    assert node not in picks
                    assert not connected_after_removal_oracle(nodes, hyperedges, set(picks))
                report = strong_connectivity(hg, cap=d - k + 1)
                assert report.alpha == d - k and report.capped is False
                removed = set(report.witness.removed)
                assert not connected_after_removal_oracle(nodes, hyperedges, removed)


def test_criterion_3_section_battery(capsys):
    """100 random slices all pass the poset-isomorphism battery."""
    with criterion(capsys, 3, "section poset isomorphism, 100 random pairs"):
        checked = 0
        for p, h in section_battery():
            assert_section_isomorphism(p, h, section(p, h))
            checked += 1
        assert checked == 100


def test_criterion_4_cutting_hyperplane(capsys):
    """500 random (F,G,R) triples: one exact solve finds a plane, verified."""
    with criterion(capsys, 4, "cutting hyperplane search, 500 random triples"):
        rng = random.Random(777)
        pool = [instance(f, d, n=n) for f, d, n in FAMILY_GRID] + [
            (polytope("random", 3, n=7, seed=s), lattice_of("random", 3, n=7, seed=s))
            for s in range(2)
        ]
        attempts_seen = Counter()
        done = 0
        while done < 500:
            p, lat = pool[done % len(pool)]
            d = lat.dim
            k = rng.randint(1, d - 1)
            faces = lat.faces_of_dim(k)
            if len(faces) < 3:
                continue
            f, g, r = rng.sample(faces, 3)
            h, attempts = search_cutting_hyperplane(p, f, g, r)
            # the closed form plus at most m (D - 1) + 1 nudge directions,
            # where the m vertices on its plane number at most n - |r|
            grazed = len(p.rows) - len(r.vertex_set)
            assert 1 <= attempts <= 2 + grazed * (p.ambient_dim - 1)
            assert hyperplane_conditions_oracle(
                p, f.vertex_set, g.vertex_set, r.vertex_set, h.row[1:], -h.row[0]
            ), (f.id, g.id, r.id, h)
            attempts_seen[attempts] += 1
            done += 1
        assert sum(attempts_seen.values()) == 500
    with capsys.disabled():
        spread = ", ".join(
            f"{a} attempt(s): {c}" for a, c in sorted(attempts_seen.items())
        )
        print(f"  attempt distribution over 500 searches: {spread}")


def test_criterion_5_ridge_path_solver(capsys):
    """200 random blocked instances: solver and BFS oracle agree, paths verify."""
    with criterion(capsys, 5, "ridge-path solver vs oracle, 200 instances"):
        rng = random.Random(4242)
        cases = []
        d3 = [
            instance("cube", 3),
            instance("cross", 3),
            instance("simplex", 3),
            instance("cyclic", 3, n=6),
            (polytope("random", 3, n=7, seed=0), lattice_of("random", 3, n=7, seed=0)),
        ]
        d4 = [
            instance("cube", 4),
            instance("cross", 4),
            instance("simplex", 4),
            instance("cyclic", 4, n=7),
            (polytope("random", 4, n=7, seed=0), lattice_of("random", 4, n=7, seed=0)),
        ]
        for i in range(80):
            cases.append((d3[i % len(d3)], 2))
        for i in range(70):
            cases.append((d4[i % len(d4)], 2))
        for i in range(50):
            cases.append((d4[i % len(d4)], 3))

        solved = 0
        unreachable = 0
        for idx, ((p, lat), k) in enumerate(cases):
            faces = [f.id for f in lat.faces_of_dim(k)]
            if len(faces) < k + 2:
                raise AssertionError(f"instance pool too small at k={k}")
            blocked = rng.sample(faces, k)
            rest = [fid for fid in faces if fid not in blocked]
            f_id, g_id = rng.sample(rest, 2)
            b = BlockedSet.of(k, blocked)
            oracle_path = bfs_ridge_path_oracle(lat, k, set(blocked), f_id, g_id)
            if oracle_path is None:
                unreachable += 1
                try:
                    solve_ridge_path(p, b, f_id, g_id)
                    raise AssertionError(
                        f"solver found a path the oracle says cannot exist: {blocked}"
                    )
                except RidgePathError:
                    pass
                continue
            res = solve_ridge_path(p, b, f_id, g_id)
            assert verify_ridge_path(lat, k, b, res.path, f_id, g_id), (blocked, f_id, g_id)
            solved += 1
        assert solved + unreachable == 200
        # the bound promises reachability whenever |B| = k <= k, so the
        # unreachable branch should never fire on these instances
        assert unreachable == 0, f"{unreachable} instances lacked any path"


def test_criterion_6_duality_equivalence(capsys):
    """H_k matches the dual skeleton structure; lattices anti-isomorphic."""
    with criterion(capsys, 6, "duality equivalence on all families"):
        for family, dim, p, lat in grid_instances():
            assert_hypergraphs_are_dual(p)


def test_criterion_7_structural_invariants(capsys):
    """Euler, closure, grading, and simple-family counts on every lattice."""
    with criterion(capsys, 7, "structural invariants on every lattice"):
        audited = 0
        for family, dim, p, lat in grid_instances():
            assert euler_characteristic_holds(lat), (family, dim)

            sets = {f.vertex_set for f in lat.faces}
            for a, b in combinations(lat.faces, 2):
                meet = tuple(sorted(set(a.vertex_set) & set(b.vertex_set)))
                assert meet in sets, (family, dim, a.id, b.id)

            for a in lat.faces:
                for b in lat.faces:
                    if a is not b and set(a.vertex_set) < set(b.vertex_set):
                        assert a.dim < b.dim
                if a.dim < lat.dim:
                    assert any(x.dim == a.dim + 1 for x in lat.parents(a))

            if family in SIMPLE_FAMILIES:
                upper = {
                    k: [set(f.vertex_set) for f in lat.faces_of_dim(k + 1)]
                    for k in range(dim)
                }
                for k in range(dim):
                    for f in lat.faces_of_dim(k):
                        count = sum(
                            1 for s in upper[k] if set(f.vertex_set) <= s
                        )
                        assert count == dim - k, (family, dim, k, f.id)
            audited += 1
        assert audited == len(FAMILY_GRID)
