"""Combinatorial automorphism groups and their orbits on faces."""

from math import factorial

import pytest

from facelab.generators import random_polytope
from facelab.polytope import face_lattice, indices_of
from facelab.symmetry import automorphism_generators, orbit_representatives
from instances import CLASSICAL, FAMILY_GRID, classical, lattice_of
from oracles import automorphisms_oracle, group_closure

# (family, d, n) -> the order of the combinatorial automorphism group.
CLOSED_FORMS = {
    **{("simplex", d, None): factorial(d + 1) for d in (2, 3, 4, 5)},
    **{("cube", d, None): 2**d * factorial(d) for d in (2, 3, 4, 5)},
    **{("cross", d, None): 2**d * factorial(d) for d in (2, 3, 4, 5)},
    # Over a (d-1)-cube; at d = 2 the pyramid is a triangle.
    **{("pyramid", d, None): 2 ** (d - 1) * factorial(d - 1) for d in (3, 4, 5)},
    # Over a (d-1)-simplex; at d = 2 the prism is a square.
    **{("prism", d, None): 2 * factorial(d) for d in (3, 4, 5)},
    **{("cyclic", 5, n): 4 for n in (9, 10, 11)},
    ("cyclic", 4, 10): 20,
}

# The classical instances' orders (`instances.CLASSICAL`).  Delta(n, k) has
# the coordinate permutations, and at k = n/2 also x -> 1 - x; Pi_n has the
# coordinate permutations and x -> (n + 1) - x; B_n has the row and the
# column permutations and the transpose; the 24-cell's group is the Weyl
# group F_4.
CLASSICAL_ORDERS = {
    "hypersimplex(5,2)": factorial(5),
    "hypersimplex(6,2)": factorial(6),
    "hypersimplex(6,3)": 2 * factorial(6),
    "permutahedron(4)": 2 * factorial(4),
    "permutahedron(5)": 2 * factorial(5),
    "24-cell": 1152,
    "birkhoff(3)": 2 * factorial(3) ** 2,
    "birkhoff(4)": 2 * factorial(4) ** 2,
}


def small_lattices():
    """(name, lattice) of every instance here with at most 10 vertices."""
    for family, d, n in FAMILY_GRID + [
        ("pyramid", 4, None), ("prism", 5, None), ("cross", 5, None),
        ("cyclic", 5, 9), ("cyclic", 4, 10),
    ]:
        lattice = lattice_of(family, d, n)
        if lattice.n_vertices <= 10:
            yield f"{family}{d}_{n}", lattice
    # Seeded random(5, n) polytopes, n = 8-10, the kind the benchmark scans.
    for n in (8, 9, 10):
        for seed in (1, 2, 3, 4):
            yield f"random5_{n}_{seed}", face_lattice(random_polytope(5, n, seed=seed))


SMALL = dict(small_lattices())


@pytest.mark.parametrize("name", list(SMALL))
def test_every_generator_maps_facets_onto_facets(name):
    lattice = SMALL[name]
    masks = {f.mask for f in lattice.faces_of_dim(lattice.dim - 1)}
    for g in lattice.automorphisms:
        assert sorted(g) == list(range(lattice.n_vertices))
        images = {sum(1 << g[v] for v in range(lattice.n_vertices) if m >> v & 1) for m in masks}
        assert images == masks


@pytest.mark.parametrize("family, d, n", list(CLOSED_FORMS))
def test_group_order_matches_the_closed_form(family, d, n):
    lattice = lattice_of(family, d, n)
    group = group_closure(lattice.automorphisms, lattice.n_vertices)
    assert len(group) == CLOSED_FORMS[family, d, n]


@pytest.mark.parametrize("name", list(CLASSICAL_ORDERS))
def test_classical_group_order_matches_the_closed_form(name):
    lattice = classical(name).lattice
    assert len(group_closure(lattice.automorphisms, lattice.n_vertices)) == CLASSICAL_ORDERS[name]


def test_every_classical_instance_has_its_order():
    assert CLASSICAL_ORDERS.keys() == CLASSICAL.keys()


@pytest.mark.parametrize("name", list(SMALL))
def test_group_agrees_with_brute_force(name):
    lattice = SMALL[name]
    facet_sets = [frozenset(f.vertex_set) for f in lattice.faces_of_dim(lattice.dim - 1)]
    expected = automorphisms_oracle(lattice.n_vertices, facet_sets)
    assert group_closure(lattice.automorphisms, lattice.n_vertices) == expected


def test_the_facet_check_rejects_what_the_counts_allow():
    # Every two points of the Fano plane share one of its seven lines, so
    # the shared-facet counts allow all 5040 permutations; 168 keep the lines.
    lines = [0b0000111, 0b0011001, 0b0101010, 0b1001100, 0b0110100, 0b1010010, 0b1100001]
    group = group_closure(automorphism_generators(7, lines), 7)
    assert len(group) == 168
    assert group == automorphisms_oracle(7, [frozenset(indices_of(m)) for m in lines])


def test_the_group_is_cached_on_the_lattice():
    lattice = face_lattice(random_polytope(5, 8, seed=2))
    assert "automorphisms" not in vars(lattice)
    assert lattice.automorphisms is lattice.automorphisms
    assert "automorphisms" in vars(lattice)


@pytest.mark.parametrize("name", list(SMALL))
def test_representatives_are_the_lowest_of_each_orbit(name):
    lattice = SMALL[name]
    group = group_closure(lattice.automorphisms, lattice.n_vertices)
    for k in range(lattice.dim):
        masks = [f.mask for f in lattice.faces_of_dim(k)]
        index = {m: i for i, m in enumerate(masks)}
        expected = tuple(
            min(index[sum(1 << g[v] for v in range(len(g)) if m >> v & 1)] for g in group)
            for m in masks
        )
        reps = orbit_representatives(lattice.automorphisms, masks)
        assert (reps or tuple(range(len(masks)))) == expected
        assert reps is None or reps != tuple(range(len(masks)))


def test_no_generators_leave_every_node_its_own():
    assert orbit_representatives((), [1, 2, 4]) is None
    assert orbit_representatives([(1, 0, 2)], [1, 2, 4]) == (0, 0, 2)
