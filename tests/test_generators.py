"""Instance generator families: shapes, determinism, and validation."""

import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelab import generators, geometry
from facelab.generators import (
    FAMILIES,
    GeneratorError,
    GeneratorSpec,
    cross_polytope,
    cube,
    cyclic,
    generate,
    prism,
    prism_over,
    pyramid,
    pyramid_over,
    random_polytope,
    simplex,
)
from facelab.geometry import QVector
from facelab.polytope import VPolytope, face_lattice, facets
from instances import lattice_of
from oracles import (
    affine_rank,
    affine_rank_oracle,
    coordinates,
    gale_evenness_facets,
    hull_membership_oracle,
    in_general_position_oracle,
    rational_points,
)


class TestFixedFamilies:
    def test_sizes(self):
        assert simplex(4).n_vertices == 5
        assert cube(4).n_vertices == 16
        assert cross_polytope(4).n_vertices == 8
        assert cyclic(3, 7).n_vertices == 7

    def test_f_vectors(self):
        assert lattice_of("cube", 2).f_vector == (4, 4)
        assert lattice_of("cross", 4).f_vector == (8, 24, 32, 16)
        assert lattice_of("simplex", 3).f_vector == (4, 6, 4)
        assert lattice_of("pyramid", 3).f_vector == (5, 8, 5)
        assert lattice_of("prism", 3).f_vector == (6, 9, 5)

    def test_cube_vertex_order_is_lexicographic_bits(self):
        p = cube(3)
        assert list(p.rows[:3]) == [(1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0)]
        assert p.rows[7] == (1, 1, 1, 1)

    def test_cyclic_facets_satisfy_evenness(self):
        found = {frozenset(f.vertex_set) for f, _ in facets(cyclic(4, 7))}
        assert found == gale_evenness_facets(7, 4)
        assert len(found) == 14

    def test_cube_and_simplex_are_simple(self):
        for p, d in [(cube(3), 3), (simplex(4), 4)]:
            lat = face_lattice(p)
            facet_sets = [set(f.vertex_set) for f in lat.faces_of_dim(d - 1)]
            for v in lat.faces_of_dim(0):
                assert sum(1 for s in facet_sets if set(v.vertex_set) <= s) == d

    def test_cyclic_d4_is_2_neighborly(self):
        # every vertex pair of a 4-dimensional cyclic polytope spans an edge
        lat = lattice_of("cyclic", 4, n=6)
        assert len(lat.faces_of_dim(1)) == 15

    def test_pyramid_apex_touches_all_base_facets(self):
        lat = lattice_of("pyramid", 3)
        apex = max(int(f.id[1:]) for f in lat.faces_of_dim(0))
        side_facets = [f for f in lat.faces_of_dim(2) if apex in f.vertex_set]
        assert len(side_facets) == 4


def random_polytope_oracle(d: int, n: int, seed: int, bound: int) -> list[tuple[int, ...]]:
    """The vertex rows `random_polytope` documents: attempt a draws its batch
    from random.Random(seed + a * 1_000_003), and the first batch whose points
    are distinct, in general position and all hull vertices, by the Fraction
    oracles, is the polytope."""
    for attempt in range(1000):
        rng = random.Random(seed + attempt * 1_000_003)
        points = [tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(n)]
        exact = [tuple(map(Fraction, v)) for v in points]
        if len(set(points)) < n or not in_general_position_oracle(exact, d):
            continue
        others = (exact[:i] + exact[i + 1 :] for i in range(n))
        if not any(map(hull_membership_oracle, others, exact)):
            return [(1, *v) for v in points]
    raise AssertionError(f"no batch passes (d={d}, n={n}, seed={seed}, bound={bound})")


# Requests that succeed, per (d, n) one seed for each of the bounds 1, 2, 3
# and 10: every d <= 4 and n <= d + 4, the seeds running through 1-20.  At
# bound 1 the (3, 7) and (4, 8) requests take 205 and 74 attempts; (3, 7)
# succeeds there only for seeds 3, 6, 12, 16 and 17.  Each (4, 8) request
# costs the oracles about 0.3 s, so bounds 2 and 3 (None) are left out there.
ACCEPTANCE_SEEDS = {
    (1, 2): (1, 2, 3, 4),
    (2, 3): (5, 6, 7, 8),
    (2, 4): (9, 10, 11, 12),
    (2, 5): (13, 14, 15, 16),
    (2, 6): (17, 18, 19, 20),
    (3, 4): (1, 2, 3, 4),
    (3, 5): (5, 6, 7, 8),
    (3, 6): (9, 10, 11, 12),
    (3, 7): (6, 14, 15, 16),
    (4, 5): (17, 18, 19, 20),
    (4, 6): (1, 2, 3, 4),
    (4, 7): (5, 6, 7, 8),
    (4, 8): (2, None, None, 12),
}


class TestRandomPolytopes:
    def test_returns_the_first_batch_that_passes_every_check(self):
        """The accepted attempt, end to end: the rows are those of the first
        batch the Fraction oracles pass, whichever checks refused the ones
        before it."""
        for (d, n), seeds in ACCEPTANCE_SEEDS.items():
            for bound, seed in zip((1, 2, 3, 10), seeds):
                if seed is None:
                    continue
                expected = random_polytope_oracle(d, n, seed, bound)
                assert list(random_polytope(d, n, seed, bound).rows) == expected, (d, n, bound)

    def test_deterministic_per_seed(self):
        a = random_polytope(3, 6, seed=9)
        b = random_polytope(3, 6, seed=9)
        assert a.rows == b.rows
        c = random_polytope(3, 6, seed=10)
        assert c.rows != a.rows

    def test_general_position(self):
        p = random_polytope(3, 7, seed=1)
        for subset in combinations(p.rows, 4):
            assert affine_rank(list(subset)) == 3
        # second route for a handful of subsets
        for subset in list(combinations(rational_points(p), 4))[:10]:
            assert affine_rank_oracle(list(subset)) == 3

    def test_general_position_verdicts_match_fraction_oracle(self, monkeypatch):
        """Every batch random_polytope draws, judged by integer and Fraction rank."""
        judge = generators._in_general_position
        verdicts = []

        def checked(rows, d):
            verdict = judge(rows, d)
            assert verdict == in_general_position_oracle([coordinates(r) for r in rows], d)
            verdicts.append(verdict)
            return verdict

        monkeypatch.setattr(generators, "_in_general_position", checked)
        for seed in range(1, 51):
            for d, n, bound in ((3, 6, 2), (4, 7, 2), (5, 8, 10)):
                random_polytope(d, n, seed, bound)
        assert verdicts.count(False) >= 50 and verdicts.count(True) >= 150

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_general_position_matches_fraction_oracle_on_raw_batches(self, data):
        """Any batch, not only the ones random_polytope draws: d up to 5, distinct
        points in small boxes, and one point often replaced by a copy of
        another, or by a point on the line through two others or in the plane
        through three."""
        d = data.draw(st.integers(1, 5), label="d")
        bound = data.draw(st.integers(1, 3), label="bound")
        n = data.draw(st.integers(d + 1, min(d + 6, (2 * bound + 1) ** d)), label="n")
        # Uniform draws: Hypothesis's own lean to small values would make
        # nearly every batch degenerate.
        rng = data.draw(st.randoms(use_true_random=False))
        box = list(product(range(-bound, bound + 1), repeat=d))
        points = rng.sample(box, n)
        span = data.draw(st.integers(0, min(3, n - 1)), label="points spanning the degenerate one")
        if span:
            base = data.draw(st.permutations(range(n)))[:span]
            weights = data.draw(st.lists(st.integers(-2, 2), min_size=span - 1, max_size=span - 1))
            at = data.draw(st.sampled_from([i for i in range(n) if i not in base]))
            first = points[base[0]]
            points[at] = tuple(
                x + sum(w * (points[b][i] - x) for w, b in zip(weights, base[1:]))
                for i, x in enumerate(first)
            )
        rows = [QVector.of(point).row for point in points]
        expected = in_general_position_oracle([coordinates(r) for r in rows], d)
        assert generators._in_general_position(rows, d) == expected

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_general_position_work_is_pinned(self, monkeypatch, d):
        """An accepted batch of n rows costs C(n-1, d-1) reduction calls,
        C(n-2, d-1) of them the direct test in the plane, and no elimination."""
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in ("_all_independent", "_distinct_directions"):
            monkeypatch.setattr(generators, name, counted(name, getattr(generators, name)))
        monkeypatch.setattr(geometry, "eliminate", counted("eliminate", geometry.eliminate))
        for n in range(d + 1, d + 7):
            # Points on the moment curve: every d+1 of them are independent.
            rows = [(1, *(t**e for e in range(1, d + 1))) for t in range(1, n + 1)]
            counts.clear()
            assert generators._in_general_position(rows, d)
            assert counts == {
                "_all_independent": comb(n - 1, d - 1),
                "_distinct_directions": comb(n - 2, d - 1),
            }

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_general_position_refuses_a_repeated_point(self, d):
        """random_polytope's only check for coincident points: n >= d+1, and
        any d+1 rows that hold one point twice are dependent."""
        for n in range(d + 1, d + 4):
            rows = [(1, *(t**e for e in range(1, d + 1))) for t in range(1, n + 1)]
            assert generators._in_general_position(rows, d)
            for i, j in combinations(range(n), 2):
                repeated = rows[:j] + [rows[i]] + rows[j + 1 :]
                assert not generators._in_general_position(repeated, d), (n, i, j)

    def test_every_point_is_a_vertex(self):
        p = random_polytope(4, 7, seed=3)
        # from_points(validate=True) re-runs the hull check on every point
        VPolytope.from_points([QVector(row) for row in p.rows], validate=True)

    def test_bound_too_small(self):
        with pytest.raises(GeneratorError):
            random_polytope(2, 100, seed=0, bound=1)

    def test_segment_with_three_points_is_refused_at_once(self):
        # Any three points on a line have one inside the hull of the others,
        # so no number of redraws could succeed.
        with pytest.raises(GeneratorError, match="^a 1-polytope has exactly 2 vertices, got 3$"):
            random_polytope(1, 3, seed=1)
        assert random_polytope(1, 2, seed=1).n_vertices == 2


INVALID_SPECS = [
    dict(family="nope", dim=3),
    dict(family="cube", dim=0),
    dict(family="cube", dim=3, n=9),
    dict(family="cyclic", dim=3),
    dict(family="cyclic", dim=3, n=3),
    dict(family="cyclic", dim=3, n=6, seed=1),
    dict(family="random", dim=3, n=3),
    dict(family="simplex", dim=2, seed=5),
    dict(family="pyramid", dim=1),
    dict(family="prism", dim=1),
    dict(family="cyclic", dim=1, n=3),
    dict(family="random", dim=1, n=3),
    dict(family="random", dim=2, n=5, bound=0),
    dict(family="random", dim=2, n=30, bound=1),
    # 500 points do not fit in the default box [-10, 10]^2.
    dict(family="random", dim=2, n=500),
]

FUNCTIONS = {
    "simplex": simplex,
    "cube": cube,
    "cross": cross_polytope,
    "cyclic": cyclic,
    "random": random_polytope,
    "pyramid": pyramid,
    "prism": prism,
}


def direct_call(kwargs: dict):
    """The family function and its arguments for these spec fields, with
    `generate`'s defaults for seed and bound; None when the fields do not
    map onto the function's parameters."""
    family, dim, n = kwargs["family"], kwargs["dim"], kwargs.get("n")
    seed, bound = kwargs.get("seed"), kwargs.get("bound")
    if family == "random":
        defaulted = (seed or 0, 10 if bound is None else bound)
        return None if n is None else (random_polytope, (dim, n, *defaulted))
    if family not in FUNCTIONS or seed is not None or bound is not None:
        return None
    if family == "cyclic":
        return None if n is None else (cyclic, (dim, n))
    return None if n is not None else (FUNCTIONS[family], (dim,))


class TestGeneratorSpec:
    def test_families_listed(self):
        assert set(FAMILIES) == {
            "simplex", "cube", "cross", "cyclic", "random", "pyramid", "prism",
        }

    def test_dispatch_matches_direct_calls(self):
        assert generate(GeneratorSpec("cube", 3)).rows == cube(3).rows
        assert generate(GeneratorSpec("cyclic", 3, n=6)).rows == cyclic(3, 6).rows
        spec = GeneratorSpec("random", 3, n=6, seed=4)
        assert generate(spec).rows == random_polytope(3, 6, seed=4).rows

    def test_package_root_names_no_generator(self):
        # The generators are imported from their module.  A fresh interpreter,
        # so modules other tests imported do not count: the root loads none.
        probe = (
            "import sys, facelab\n"
            "print([m for m in sys.modules if m.startswith('facelab.')])\n"
            "print(hasattr(facelab, 'generate'))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.splitlines() == ["[]", "False"]

    @pytest.mark.parametrize("kwargs", INVALID_SPECS)
    def test_invalid_specs_rejected(self, kwargs):
        # The constructor itself refuses the spec; generate is never reached.
        with pytest.raises(GeneratorError):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [kwargs for kwargs in INVALID_SPECS if direct_call(kwargs)]
    )
    def test_family_functions_refuse_through_the_spec(self, kwargs):
        with pytest.raises(GeneratorError) as refused:
            GeneratorSpec(**kwargs)
        function, args = direct_call(kwargs)
        with pytest.raises(GeneratorError, match=f"^{re.escape(str(refused.value))}$"):
            function(*args)

    @pytest.mark.parametrize("family", ["cyclic", "random"])
    def test_segment_has_two_vertices(self, family):
        with pytest.raises(GeneratorError, match="^a 1-polytope has exactly 2 vertices, got 3$"):
            GeneratorSpec(family, 1, n=3)
        assert generate(GeneratorSpec(family, 1, n=2)).n_vertices == 2

    def test_prism_and_pyramid_dims(self):
        assert pyramid(3).dim == 3
        assert prism(4).dim == 4

    @pytest.mark.parametrize("over", [pyramid_over, prism_over])
    def test_flat_base_refused(self, over):
        # A segment in the plane spans a line, not the plane.
        flat = VPolytope.from_points([QVector.of([0, 0]), QVector.of([1, 1])])
        with pytest.raises(GeneratorError, match="base must be full-dimensional$"):
            over(flat)
