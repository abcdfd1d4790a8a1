"""Face hypergraphs: removal connectivity, witnesses, and dual structure."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelab import hypergraph
from facelab.generators import random_polytope
from facelab.hypergraph import (
    ConnectivityReport,
    DisconnectionWitness,
    FaceHypergraph,
    HypergraphError,
    _first_disconnected,
    _removal_sets,
    build_hypergraph,
    strong_connectivity,
)
from facelab.polytope import Face, face_lattice, indices_of, mask_of
from facelab.symmetry import orbit_representatives
from instances import (
    FAMILY_GRID,
    classical,
    golden_random_polytopes,
    lattice_of,
    polytope,
)
from oracles import (
    assert_hypergraphs_are_dual,
    connected_after_removal_oracle,
    find_isolating_set,
    first_component_oracle,
    first_disconnecting_set_oracle,
    hypergraph_oracle,
)


def vertex_faces(indices) -> tuple[Face, ...]:
    """Nodes that are single vertices, so node j has the id v<indices[j]>."""
    return tuple(Face(1 << i, 0) for i in indices)


def toy_path() -> FaceHypergraph:
    """Three nodes v1, v2, v3, edges v1-v2 and v2-v3; the middle node is a
    cut point."""
    return FaceHypergraph(k=0, faces=vertex_faces((1, 2, 3)), edges=(0b011, 0b110))


def exact_check_connects(hg: FaceHypergraph, removed) -> bool:
    """The scan's exact check on one lane: is the hypergraph still connected
    once the given node ids are removed?"""
    members = [indices_of(m) for m in hg.edges]
    nodes = [hg.nodes.index(r) for r in removed]
    return _first_disconnected(hg.n_nodes, members, [nodes]) is None


def oracle_connects(hg: FaceHypergraph, removed) -> bool:
    return connected_after_removal_oracle(list(hg.nodes), list(hg.hyperedges), set(removed))


def hub_hypergraph() -> FaceHypergraph:
    """v1 lies only on {v0, v1} and {v1, v2}; v0 and v2 are hubs with an edge
    to every other node.  No single removal disconnects, and the second pair
    in canonical order, (v0, v2), cuts v1 off.  The list of all C(300, 2)
    pairs would take about 3 MB."""
    edges = [0b011, 0b110] + [1 << h | 1 << v for h in (0, 2) for v in range(3, 300)]
    return FaceHypergraph(k=0, faces=vertex_faces(range(300)), edges=tuple(edges))


@st.composite
def abstract_hypergraphs(draw) -> FaceHypergraph:
    """3-14 nodes and n-3n hyperedges of 1-4 nodes each."""
    n = draw(st.integers(min_value=3, max_value=14))
    members = st.frozensets(st.sampled_from(range(n)), min_size=1, max_size=4)
    edges = draw(st.lists(members, min_size=n, max_size=3 * n))
    return FaceHypergraph(0, vertex_faces(range(n)), tuple(mask_of(m) for m in edges))


@st.composite
def symmetric_hypergraphs(draw) -> FaceHypergraph:
    """3-12 nodes, and 1-6 drawn hyperedges of 1-4 nodes each with all their
    images under a drawn permutation, whose orbits give the representatives."""
    n = draw(st.integers(min_value=3, max_value=12))
    perm = draw(st.permutations(range(n)).filter(lambda p: p != list(range(n))))
    drawn = draw(
        st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=6)
    )
    edges = set()
    for members in drawn:
        while members not in edges:
            edges.add(members)
            members = frozenset(perm[i] for i in members)
    masks = tuple(mask_of(m) for m in sorted(edges, key=sorted))
    representatives = orbit_representatives([tuple(perm)], [1 << i for i in range(n)])
    return FaceHypergraph(0, vertex_faces(range(n)), masks, representatives)


class TestBuild:
    def test_cube3_shapes(self):
        lat = lattice_of("cube", 3)
        h0 = build_hypergraph(lat, 0)
        assert h0.n_nodes == 8 and len(h0.hyperedges) == 12
        assert all(len(m) == 2 for _, m in h0.hyperedges)
        h1 = build_hypergraph(lat, 1)
        assert h1.n_nodes == 12 and len(h1.hyperedges) == 6
        assert all(len(m) == 4 for _, m in h1.hyperedges)
        h2 = build_hypergraph(lat, 2)
        assert h2.n_nodes == 6 and len(h2.hyperedges) == 1
        assert len(h2.hyperedges[0][1]) == 6

    def test_incidence_matches_lattice(self):
        lat = lattice_of("cube", 3)
        hg = build_hypergraph(lat, 1)
        for eid, members in hg.hyperedges:
            facet = set(lat.face(eid).vertex_set)
            for node in hg.nodes:
                assert (node in members) == (set(lat.face(node).vertex_set) <= facet)

    def test_every_node_covered(self):
        for lat in [lattice_of("cube", 3), lattice_of("cyclic", 4, n=7)]:
            for k in range(lat.dim):
                hg = build_hypergraph(lat, k)
                for node in hg.nodes:
                    assert any(node in members for _, members in hg.hyperedges)

    def test_k_out_of_range(self):
        lat = lattice_of("cube", 3)
        with pytest.raises(HypergraphError):
            build_hypergraph(lat, 3)
        with pytest.raises(HypergraphError):
            build_hypergraph(lat, -1)


class TestIdViews:
    """The id views of the mask-built H_k against `hypergraph_oracle`, which
    builds ids and id sets the way the library once did."""

    @staticmethod
    def assert_views_match(lattice):
        for k in range(lattice.dim):
            hg = build_hypergraph(lattice, k)
            assert (hg.nodes, hg.hyperedges) == hypergraph_oracle(lattice, k), k
            assert [f.dim for f in hg.faces] == [k] * hg.n_nodes

    @pytest.mark.parametrize("family, d, n", FAMILY_GRID)
    def test_family_grid(self, family, d, n):
        self.assert_views_match(lattice_of(family, d, n))

    def test_golden_random_polytopes(self):
        found = golden_random_polytopes()
        assert len(found) == 25
        for p in found:
            self.assert_views_match(face_lattice(p))

    def test_toy_path_ids(self):
        hg = toy_path()
        assert hg.nodes == ("v1", "v2", "v3")
        assert hg.hyperedges == (
            ("v1-v2", frozenset({"v1", "v2"})),
            ("v2-v3", frozenset({"v2", "v3"})),
        )


class TestRemoval:
    def test_toy_path(self):
        hg = toy_path()
        assert exact_check_connects(hg, []) is True
        assert exact_check_connects(hg, ["v2"]) is False
        assert exact_check_connects(hg, ["v1", "v3"]) is True
        assert exact_check_connects(hg, ["v1", "v2"]) is True

    def test_cube_edge_graph_examples(self):
        hg = build_hypergraph(lattice_of("cube", 3), 1)
        # the two other edges at vertex v0 isolate edge v0-v4
        assert exact_check_connects(hg, ["v0-v1", "v0-v2"]) is False
        assert exact_check_connects(hg, ["v0-v1"]) is True

    def test_agrees_with_union_find_oracle(self):
        rng = random.Random(13)
        for fam, d, k in [("cube", 3, 0), ("cube", 3, 1), ("cross", 3, 1)]:
            hg = build_hypergraph(lattice_of(fam, d), k)
            for _ in range(40):
                size = rng.randint(0, min(4, hg.n_nodes))
                removed = rng.sample(list(hg.nodes), size)
                assert exact_check_connects(hg, removed) == oracle_connects(hg, removed)

    def test_removal_is_monotone(self):
        # once disconnected with both witnesses alive, more removals never help
        hg = build_hypergraph(lattice_of("cube", 3), 1)
        base = ["v0-v1", "v0-v2"]
        assert exact_check_connects(hg, base) is False
        rng = random.Random(5)
        alive = [n for n in hg.nodes if n not in base and n != "v0-v4"]
        for _ in range(10):
            extra = rng.sample(alive, 2)
            assert exact_check_connects(hg, base + extra) is False


class TestStrongConnectivity:
    def test_cube3_edge_hypergraph(self):
        hg = build_hypergraph(lattice_of("cube", 3), 1)
        report = strong_connectivity(hg, cap=3)
        assert report.alpha == 2 and report.capped is False
        w = report.witness
        assert w is not None and list(w.removed) == ["v0-v1", "v0-v2"]
        assert list(w.component_a) == ["v0-v4"]
        assert set(w.component_a) | set(w.component_b) | set(w.removed) == set(hg.nodes)
        # the witness really is a disconnection
        assert oracle_connects(hg, w.removed) is False

    def test_sequential_scan_holds_no_subset_list(self):
        # A scan holds at most one batch of removal sets.  The hub stops in
        # its third batch, at its second pair; the plain scan of the 5-cube's
        # 80 edges at cap 4 checks all 85,401 sets of at most three edges, 19
        # batches of them at the full 4,096 lanes, whose list alone would
        # take about 7 MB.
        cube = build_hypergraph(lattice_of("cube", 5), 1)._replace(representatives=None)
        tracemalloc.start()
        try:
            report = strong_connectivity(hub_hypergraph(), cap=3)
            _, hub_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            capped = strong_connectivity(cube, cap=4)
            _, cube_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.alpha == 2 and report.witness.removed == ("v0", "v2")
        assert report.witness.component_a == ("v1",)
        assert hub_peak < 1_000_000
        assert capped == ConnectivityReport(1, 4, True, None)
        assert cube_peak < 1_500_000

    def test_single_node_is_never_disconnected(self):
        lat = lattice_of("simplex", 3)
        h2 = build_hypergraph(lat, 2)
        report = strong_connectivity(h2, cap=1)
        assert report.alpha == 1 and report.capped is True and report.witness is None

    def test_triangle_vertices_capped(self):
        lat = lattice_of("simplex", 2)
        h0 = build_hypergraph(lat, 0)
        report = strong_connectivity(h0, cap=2)
        assert report.alpha == 2 and report.capped is True

    def test_witness_is_minimum_size(self):
        hg = build_hypergraph(lattice_of("cross", 3), 0)
        report = strong_connectivity(hg, cap=4)
        if not report.capped:
            for size in range(len(report.witness.removed)):
                import itertools

                for removed in itertools.combinations(hg.nodes, size):
                    assert oracle_connects(hg, removed)

    def test_cap_must_be_positive(self):
        hg = toy_path()
        with pytest.raises(HypergraphError):
            strong_connectivity(hg, cap=0)

    def test_json_round_trip_shape(self):
        hg = build_hypergraph(lattice_of("cube", 3), 1)
        doc = strong_connectivity(hg, cap=3).to_json_dict()
        assert doc["k"] == 1 and doc["alpha"] == 2 and doc["capped"] is False
        assert set(doc["witness"]) == {"removed", "component_a", "component_b"}


class TestDetour:
    """The batches of removal sets the scan hands to the bit-sliced check:
    every set it takes, as one stream across sizes in lanes of 64 doubling
    per batch, and fewer under the orbit rule."""

    def test_certificate_skips_exact_checks(self, monkeypatch):
        # The 4-cube's edge hypergraph at cap 3, every node its own orbit:
        # 1 + 32 + 496 = 529 sets, in batches of 64 lanes doubling.
        batches = count_exact_checks(monkeypatch)
        hg = build_hypergraph(lattice_of("cube", 4), 1)._replace(representatives=None)
        report = strong_connectivity(hg, cap=3)
        assert report.capped and report.alpha == 3
        assert batches == [64, 128, 256, 81]

    def test_orbits_skip_more_exact_checks(self, monkeypatch):
        # The same scan up to the 4-cube's 384 automorphisms, which are
        # transitive on its 32 edges: one set of size 0, one of size 1 and
        # the 31 pairs that hold edge 0, all in one batch.
        batches = count_exact_checks(monkeypatch)
        hg = build_hypergraph(lattice_of("cube", 4), 1)
        assert hg.representatives == (0,) * 32
        report = strong_connectivity(hg, cap=3)
        assert report.capped and report.alpha == 3
        assert batches == [33]


class TestWitnessSearch:
    """The witness takes its component from the batch that finds the first
    disconnecting set."""

    def test_disconnected_hypergraph_has_an_empty_removal(self, monkeypatch):
        batches = count_exact_checks(monkeypatch)
        hg = FaceHypergraph(0, vertex_faces((1, 2, 3)), (0b011, 0b100))
        report = strong_connectivity(hg, cap=3)
        assert report == ConnectivityReport(
            0, 0, False, DisconnectionWitness((), ("v1", "v2"), ("v3",))
        )
        assert batches == [7]

    def test_cut_node_is_searched_once(self, monkeypatch):
        # The empty set, the three single removals and the three pairs in
        # one batch, which finds the cut node v2 and its witness.
        batches = count_exact_checks(monkeypatch)
        report = strong_connectivity(toy_path(), cap=3)
        assert report.witness == DisconnectionWitness(("v2",), ("v1",), ("v3",))
        assert batches == [7]


def count_exact_checks(monkeypatch) -> list[int]:
    """The number of lanes in every batch handed to the bit-sliced check
    from now on."""
    batches = []
    check = hypergraph._first_disconnected

    def counted(n_nodes, members, sets):
        batches.append(len(sets))
        return check(n_nodes, members, sets)

    monkeypatch.setattr(hypergraph, "_first_disconnected", counted)
    return batches


def first_disconnected_by_scalar_check(hg: FaceHypergraph, sets) -> tuple[int, int] | None:
    """Index of the first set whose removal `first_component_oracle` finds
    disconnecting, and that component; None if there is none."""
    full = (1 << hg.n_nodes) - 1
    for i, nodes in enumerate(sets):
        removed = mask_of(nodes)
        component = first_component_oracle(hg.n_nodes, hg.edges, removed)
        if component != full & ~removed:
            return i, component
    return None


def assert_lanes_match_scalar_check(hg: FaceHypergraph, sets) -> None:
    """`_first_disconnected` finds the first disconnected lane and its
    component, and then, on the lanes after it, the next one, until none is
    left."""
    members = [indices_of(m) for m in hg.edges]
    while True:
        hit = _first_disconnected(hg.n_nodes, members, sets)
        assert hit == first_disconnected_by_scalar_check(hg, sets)
        if hit is None:
            return
        sets = sets[hit[0] + 1 :]


@st.composite
def removal_batches(draw, n_nodes: int) -> list[tuple[int, ...]]:
    """1-200 removal sets, among them at times the empty set and the set of
    every node."""
    drawn = st.lists(st.integers(0, n_nodes - 1), unique=True, max_size=n_nodes)
    sets = st.one_of(st.just(()), st.just(tuple(range(n_nodes))), drawn.map(sorted).map(tuple))
    return draw(st.lists(sets, min_size=1, max_size=200))


class TestBitSlicedCheck:
    """`_first_disconnected` against one oracle component search per lane."""

    @pytest.mark.parametrize("family, d, n", FAMILY_GRID)
    def test_every_batch_of_the_grid_scans(self, family, d, n, monkeypatch):
        # Every batch a plain or orbit scan at cap d - k + 1 builds, up to
        # and including the one that holds the first disconnecting set.
        batches = []
        check = hypergraph._first_disconnected

        def recorded(n_nodes, members, sets):
            batches.append(sets)
            return check(n_nodes, members, sets)

        monkeypatch.setattr(hypergraph, "_first_disconnected", recorded)
        lat = lattice_of(family, d, n)
        for k in range(d):
            hg = build_hypergraph(lat, k)
            members = [indices_of(m) for m in hg.edges]
            for scanned in (hg, hg._replace(representatives=None)):
                batches.clear()
                strong_connectivity(scanned, d - k + 1)
                assert batches
                for sets in batches:
                    expected = first_disconnected_by_scalar_check(hg, sets)
                    assert check(hg.n_nodes, members, sets) == expected

    @given(abstract_hypergraphs(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_abstract_hypergraphs(self, hg, isolated, data):
        if isolated:
            n = hg.n_nodes
            hg = hg._replace(faces=vertex_faces(range(n + 1)))
            assert not any(m >> n for m in hg.edges)
        assert_lanes_match_scalar_check(hg, data.draw(removal_batches(hg.n_nodes)))

    def test_edge_cases(self):
        # No removal, every node removed, one survivor, and an isolated v4.
        hg = FaceHypergraph(0, vertex_faces(range(5)), (0b0011, 0b0110, 0b1100))
        sets = [(), (0, 1, 2, 3, 4), (0, 1, 2, 3), (4,), (1,), (0, 4)]
        members = [indices_of(m) for m in hg.edges]
        assert _first_disconnected(hg.n_nodes, members, sets) == (0, 0b01111)
        assert _first_disconnected(hg.n_nodes, members, sets[1:]) == (3, 0b00001)
        assert _first_disconnected(hg.n_nodes, members, sets[1:4]) is None
        assert_lanes_match_scalar_check(hg, sets)


def pendant_cycle(position: int, n_nodes: int = 200) -> FaceHypergraph:
    """A cycle through every node but the last, which hangs off node
    position - 1 alone: that node is the only cut node, so the first
    disconnecting set sits at the given 1-based position among the single
    removals."""
    ring = n_nodes - 1
    edges = [1 << i | 1 << (i + 1) % ring for i in range(ring)]
    edges.append(1 << (position - 1) | 1 << ring)
    return FaceHypergraph(0, vertex_faces(range(n_nodes)), tuple(edges))


class TestBatchBoundaries:
    # The empty set holds lane 0, so the single removal at position p holds
    # lane p: 63 is the last lane of the first batch of 64, 64 the first of
    # the second (128 lanes), 191 its last and 192 the first of the third.
    @pytest.mark.parametrize("position", [1, 63, 64, 65, 191, 192, 193, 199])
    def test_first_cut_node_at_position(self, position, monkeypatch):
        hg = pendant_cycle(position)
        sets = list(_removal_sets(hg.n_nodes, 2, range(hg.n_nodes)))
        assert sets[position] == (position - 1,)
        batches = count_exact_checks(monkeypatch)
        report = strong_connectivity(hg, 3)
        assert report == first_disconnecting_set_oracle(hg, 3)
        assert report.alpha == 1 and report.witness.removed == (f"v{position - 1}",)
        assert report.witness.component_b == ("v199",)
        assert batches == [64, 128, 256][: 1 + (position >= 64) + (position >= 192)]

    def test_batch_across_sizes_gives_its_first_disconnecting_set(self, monkeypatch):
        # A 6-cycle at cap 4: the empty set, 6 single removals, 15 pairs and
        # 20 triples share one batch.  No single removal cuts the cycle, the
        # pair (v0, v2) is the first set that does, and later triples do too.
        cycle = tuple(1 << i | 1 << (i + 1) % 6 for i in range(6))
        hg = FaceHypergraph(0, vertex_faces(range(6)), cycle)
        batches = count_exact_checks(monkeypatch)
        report = strong_connectivity(hg, 4)
        assert batches == [42]
        assert report == first_disconnecting_set_oracle(hg, 4)
        assert report.witness == DisconnectionWitness(("v0", "v2"), ("v1",), ("v3", "v4", "v5"))
        assert report.alpha == 2

    def test_removal_sets_are_the_canonical_order(self):
        # The empty set, then each size's sets in canonical order, up to the
        # node count whatever the cap.
        assert list(_removal_sets(4, 1, range(4))) == [()]
        every = [c for size in range(5) for c in combinations(range(4), size)]
        assert list(_removal_sets(4, 3, range(4))) == every[:11]
        assert list(_removal_sets(4, 9, range(4))) == every
        # Nodes 1 and 3 lie in node 0's orbit: a set led by 1 or 3 is left
        # out, and so is one led by 2 with a later member of a lower orbit.
        orbits = (0, 0, 2, 0)
        assert list(_removal_sets(4, 3, orbits)) == [(), (0,), (2,), (0, 1), (0, 2), (0, 3)]


# The heaviest polytopes of the benchmark's `verify` plan: random(5,10)
# seed 4 has a nontrivial group.
VERIFY_HEAVIEST = [("cyclic", 5, 10, None), ("cyclic", 5, 11, None), ("random", 5, 10, 4)]


class TestScanAgainstOracleOnVerifyPlan:
    @pytest.mark.parametrize("family, d, n, seed", VERIFY_HEAVIEST)
    def test_caps_at_and_above_the_bound(self, family, d, n, seed):
        lat = lattice_of(family, d, n, seed)
        for k in range(d):
            hg = build_hypergraph(lat, k)
            top = first_disconnecting_set_oracle(hg, d - k + 1)
            for cap in (d - k, d - k + 1):
                assert strong_connectivity(hg, cap) == reports_by_cap(top, d - k + 1)[cap], (k, cap)


# Polytopes whose vertex graph H_0 is complete.
NEIGHBORLY = [("simplex", d, None) for d in (3, 4, 5)] + [("cyclic", 4, n) for n in (7, 8)]

# At cap 6 the oracle checks all 760k sets of at most 5 of cross5's 40 edges,
# about 15 s, so its H_1 stops one lower.
ORACLE_CAP_LIMITS = {("cross", 5, 1): 5}


def reports_by_cap(top, top_cap: int) -> dict[int, object]:
    """The report of a plain scan at every cap from 1 to top_cap, from its
    report at top_cap: below the first disconnecting size a scan ends capped
    at its cap."""
    return {
        cap: top
        if not top.capped and top.alpha < cap
        else top._replace(alpha=cap, capped=True, witness=None)
        for cap in range(1, top_cap + 1)
    }


class TestScanAgainstOracle:
    @pytest.mark.parametrize(
        "family, d, n",
        FAMILY_GRID + [("cube", 5, None), ("cross", 5, None), ("prism", 5, None), ("cyclic", 5, 9)],
    )
    def test_polytopes(self, family, d, n):
        lat = lattice_of(family, d, n)
        for k in range(d):
            hg = build_hypergraph(lat, k)
            top_cap = ORACLE_CAP_LIMITS.get((family, d, k), d - k + 2)
            top = first_disconnecting_set_oracle(hg, top_cap)
            for cap, expected in reports_by_cap(top, top_cap).items():
                assert strong_connectivity(hg, cap) == expected

    @given(abstract_hypergraphs())
    @settings(max_examples=150, deadline=None)
    def test_abstract_hypergraphs(self, hg):
        expected = first_disconnecting_set_oracle(hg, 5)
        assert strong_connectivity(hg, 5) == expected


class TestOrbitScan:
    """The scan up to the polytope's automorphisms against the scan of every
    set, at every cap up to d - k + 2, beyond ORACLE_CAP_LIMITS too."""

    @staticmethod
    def assert_orbits_change_nothing(lattice):
        assert lattice.automorphisms
        for k in range(lattice.dim):
            hg = build_hypergraph(lattice, k)
            top_cap = lattice.dim - k + 2
            plain = strong_connectivity(hg._replace(representatives=None), top_cap)
            for cap, expected in reports_by_cap(plain, top_cap).items():
                assert strong_connectivity(hg, cap) == expected, (k, cap)

    @pytest.mark.parametrize(
        "family, d, n",
        FAMILY_GRID + [("cube", 5, None), ("cross", 5, None), ("prism", 5, None), ("cyclic", 5, 9)],
    )
    def test_polytopes(self, family, d, n):
        self.assert_orbits_change_nothing(lattice_of(family, d, n))

    # The seeds from 1 to 4 whose polytope has a nontrivial group: the
    # others have none, and their scans are the plain scan.
    @pytest.mark.parametrize(
        "n, seed", [(8, 1), (8, 2), (8, 3), (8, 4), (9, 2), (9, 3), (9, 4), (10, 4)]
    )
    def test_random_polytopes(self, n, seed):
        self.assert_orbits_change_nothing(face_lattice(random_polytope(5, n, seed=seed)))

    @given(symmetric_hypergraphs())
    @settings(max_examples=150, deadline=None)
    def test_abstract_hypergraphs(self, hg):
        assert hg.representatives is not None
        plain = strong_connectivity(hg._replace(representatives=None), 5)
        for cap, expected in reports_by_cap(plain, 5).items():
            assert strong_connectivity(hg, cap) == expected


# Exact alpha(H_k) beyond the paper's bound d - k, pinned at cap alpha + 1:
# (family, d, n, k, alpha).  Cross-polytopes fit alpha = 2(d - k - 1);
# cubes, prisms and pyramids meet the bound at every k; simplices and
# cyclic polytopes meet it at every k >= 1.
EXACT_ALPHA = (
    [
        ("cross", d, None, k, 2 * (d - k - 1))
        for d, k in ((3, 0), (4, 0), (4, 1), (5, 1), (5, 2), (6, 3), (6, 4))
    ]
    + [
        (family, d, None, k, d - k)
        for family, d in (("cube", 5), ("prism", 4), ("pyramid", 4))
        for k in range(d)
    ]
    + [(family, d, n, k, d - k) for family, d, n in NEIGHBORLY for k in range(1, d)]
)


def assert_witness_disconnects(hg: FaceHypergraph, witness, size: int) -> None:
    """`size` removed nodes whose removal the union-find oracle finds
    disconnecting, with component_a a whole connected component of the
    survivors and component_b the rest."""
    nodes, hyperedges = list(hg.nodes), list(hg.hyperedges)
    removed, a, b = set(witness.removed), set(witness.component_a), set(witness.component_b)
    assert len(removed) == size and a and b
    assert len(removed) + len(a) + len(b) == len(nodes) and removed | a | b == set(nodes)
    assert not connected_after_removal_oracle(nodes, hyperedges, removed)
    assert connected_after_removal_oracle(nodes, hyperedges, removed | b)
    assert not any(m & a and m & b for _, m in hyperedges if not m & removed)


# delta_k, the least number of hyperedges through a node of H_k, at each k
# of the classical families in `instances.CLASSICAL`.  At k = 0 it exceeds d
# on the hypersimplices and the 24-cell.
CLASSICAL_DEGREES = {
    "hypersimplex(5,2)": (6, 3, 2, 1),
    "hypersimplex(6,2)": (8, 4, 3, 2, 1),
    "hypersimplex(6,3)": (9, 4, 3, 2, 1),
    "permutahedron(4)": (3, 2, 1),
    "permutahedron(5)": (4, 3, 2, 1),
    "24-cell": (8, 3, 2, 1),
    "birkhoff(3)": (5, 3, 2, 1),
}


class TestExactAlpha:
    @pytest.mark.parametrize("family, d, n, k, alpha", EXACT_ALPHA)
    def test_witness_at_exact_alpha(self, family, d, n, k, alpha):
        hg = build_hypergraph(lattice_of(family, d, n), k)
        report = strong_connectivity(hg, alpha + 1)
        assert (report.alpha, report.capped) == (alpha, False)
        assert_witness_disconnects(hg, report.witness, alpha)

    @pytest.mark.parametrize(
        "name, k", [(name, k) for name, ds in CLASSICAL_DEGREES.items() for k in range(len(ds))]
    )
    def test_classical_families_meet_the_least_degree(self, name, k):
        """Scanned at cap delta_k + 1, alpha_k = delta_k with a witness.  The
        exception is B_3 at k = 0: its graph is K_6, where isolating a vertex
        leaves no second component, so the scan reaches its cap."""
        hg = build_hypergraph(classical(name).lattice, k)
        delta = CLASSICAL_DEGREES[name][k]
        assert min(sum(e >> i & 1 for e in hg.edges) for i in range(hg.n_nodes)) == delta
        report = strong_connectivity(hg, delta + 1)
        if (name, k) == ("birkhoff(3)", 0):
            assert (hg.n_nodes, len(hg.edges)) == (6, 15)
            assert report == ConnectivityReport(0, delta + 1, True, None)
        else:
            assert (report.alpha, report.capped) == (delta, False)
            assert_witness_disconnects(hg, report.witness, delta)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_birkhoff4_least_degree_is_d_minus_k(self, k):
        """On B_4, d = 9, delta_k = d - k at every k >= 1; at k = 6, 7, 8,
        scanned at cap delta_k + 1, alpha_k = delta_k with a witness.  The
        scans below k = 6 take seconds (2.6 s at k = 5), so they are left out."""
        hg = build_hypergraph(classical("birkhoff(4)").lattice, k)
        delta = 9 - k
        assert min(sum(e >> i & 1 for e in hg.edges) for i in range(hg.n_nodes)) == delta
        if k >= 6:
            report = strong_connectivity(hg, delta + 1)
            assert (report.alpha, report.capped) == (delta, False)
            assert_witness_disconnects(hg, report.witness, delta)

    @pytest.mark.parametrize("family, d, n", NEIGHBORLY)
    def test_complete_vertex_graph_is_capped(self, family, d, n):
        # Every pair of vertices spans an edge, so no removal below n - 1
        # disconnects H_0; the scan stops at cap d + 1.
        report = strong_connectivity(build_hypergraph(lattice_of(family, d, n), 0), d + 1)
        assert report == ConnectivityReport(0, d + 1, True, None)


class TestIsolatingSet:
    def test_cube3_edge(self):
        hg = build_hypergraph(lattice_of("cube", 3), 1)
        picks = find_isolating_set(hg, "v0-v1")
        assert picks == ("v0-v2", "v0-v4")
        assert oracle_connects(hg, picks) is False

    def test_cube4_ridge(self):
        hg = build_hypergraph(lattice_of("cube", 4), 2)
        picks = find_isolating_set(hg, "v0-v1-v2-v3")
        assert picks is not None and len(picks) == 2
        assert oracle_connects(hg, picks) is False

    def test_triangle_has_no_isolating_set(self):
        hg = build_hypergraph(lattice_of("simplex", 2), 0)
        assert find_isolating_set(hg, "v0") is None


class TestDualityEquivalence:
    def test_standard_families(self):
        for fam, d in [("cube", 3), ("cross", 3), ("simplex", 4)]:
            assert_hypergraphs_are_dual(polytope(fam, d))

    def test_random_3_polytope(self):
        p = random_polytope(3, 7, seed=2)
        assert_hypergraphs_are_dual(p)
