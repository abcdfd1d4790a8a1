"""Independent reference implementations used to cross-check library results.

Everything here is deliberately written from scratch against the definitions,
not by calling the code under test: determinant ranks instead of elimination,
evenness-condition facets instead of hyperplane enumeration, union-find and
depth-first component searches instead of the library's, and so on.  Keep it
that way; these are the second route in every two-route check.  The Fraction
routines the library's integer kernels replaced (elimination, the hyperplane
through points, a point's side of a hyperplane, the segment crossing, the
cutting-plane search) stay here as the second route for
those kernels, and so does the scalar component search the bit-sliced
connectivity check replaced: `first_component_oracle` grows one removal's
component from its lowest survivor, hyperedge mask by hyperedge mask, where
`hypergraph._first_disconnected` grows up to 4,096 removals' components at
once, one per bit.  `slice_lattice_oracle` is the second route for the
restriction `section` gives a slice's lattice: it takes each vertex's side in
Fractions, not from the integer `plane_values`, and reads the base covers
through `parents`, not `children`.  Here a point is a sequence of its rational
coordinates; `rational_points` reads them off a polytope's integer rows.
The one exception reads the library's integer elimination:
`hyperplane_through`, which `initial_cone_oracle` calls once per ray, the
start of double description that `polytope._initial_cone` replaced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Sequence

from facelab.geometry import (
    GeometryError,
    Hyperplane,
    QVector,
    eliminate,
)
from facelab.hypergraph import (
    ConnectivityReport,
    DisconnectionWitness,
    FaceHypergraph,
    build_hypergraph,
)
from facelab.polytope import Face, FaceLattice, VPolytope, facets, polar_dual


def det(matrix: list[list[Fraction]]) -> Fraction:
    """Laplace expansion along the first row; fine for the tiny sizes here."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * det(minor)
        total += term if j % 2 == 0 else -term
    return total


def rank_by_minors(rows: list[list[Fraction]]) -> int:
    """Largest r such that some r-by-r submatrix has nonzero determinant."""
    if not rows or not rows[0]:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    for r in range(min(n_rows, n_cols), 0, -1):
        for row_idx in combinations(range(n_rows), r):
            for col_idx in combinations(range(n_cols), r):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                if det(sub) != 0:
                    return r
    return 0


Point = tuple  # rational coordinates


def coordinates(row: tuple[int, ...]) -> Point:
    """The Fraction coordinates x / x0 of a homogeneous row (x0, x)."""
    return tuple(Fraction(x, row[0]) for x in row[1:])


def rational_points(p: VPolytope) -> list[Point]:
    """The vertices of p, each as its Fraction coordinates."""
    return [coordinates(row) for row in p.rows]


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def affine_rank(rows: list[tuple[int, ...]]) -> int:
    """Dimension of the affine hull of points given as homogeneous rows; -1 for
    the empty set, 0 for a point.

    It is the rank of the rows, less one, by Fraction elimination.
    """
    return len(fraction_reduce([[Fraction(x) for x in row] for row in rows])[1]) - 1


def hyperplane_through(rows: Sequence[Sequence[int]]) -> Hyperplane | None:
    """The hyperplane containing points given as homogeneous rows, when their
    affine span has codimension one.

    Returns None when the span's codimension is not exactly one.  The plane's
    row (-c, a) spans the null space of the rows; it is read off their
    fraction-free reduction, with a positive entry on the one coordinate
    column that is not a pivot.
    """
    if not rows:
        return None
    mat, pivots = eliminate(rows)
    if len(pivots) != len(rows[0]) - 1:
        return None
    free = next(c for c in range(1, len(pivots) + 1) if c not in pivots)
    last = mat[len(pivots) - 1][pivots[-1]]
    sign = 1 if last > 0 else -1
    row = [0] * (len(pivots) + 1)
    row[free] = sign * last
    for r, col in enumerate(pivots):
        row[col] = -sign * mat[r][free]
    return Hyperplane(row)


def initial_cone_oracle(rows: list[list[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The first len(rows[0]) linearly independent rows, in input order, and
    the extreme rays of the simplicial cone they cut out.

    Ray j is the primitive normal of the hyperplane through the origin and
    every chosen row but row j, oriented to be positive on row j: a Fraction
    elimination for the pivot search and an integer one per ray.  The rows
    must span their space.
    """
    chosen = fraction_reduce([[Fraction(x) for x in column] for column in zip(*rows)])[1]
    origin = (1,) + (0,) * len(rows[0])
    rays = []
    for j in chosen:
        others = [(1, *rows[i]) for i in chosen if i != j]
        ray = hyperplane_through([origin] + others).row[1:]
        if sum(map(mul, ray, rows[j])) < 0:
            ray = [-x for x in ray]
        rays.append(tuple(ray))
    return chosen, rays


def affine_rank_oracle(points: list[Point]) -> int:
    if not points:
        return -1
    base = points[0]
    rows = [[Fraction(a) - b for a, b in zip(p, base)] for p in points[1:]]
    if not rows:
        return 0
    return rank_by_minors(rows)


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of a (possibly overdetermined) consistent system.

    Returns None when the system is inconsistent; free variables, if any,
    are set to zero.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    aug = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n_rows)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n_rows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
    for r in range(row, n_rows):
        if aug[r][n_cols] != 0:
            return None
    solution = [Fraction(0)] * n_cols
    for r, col in pivots:
        solution[col] = aug[r][n_cols]
    return solution


def fraction_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions, and its pivot columns."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def _differences(points: list[Point]) -> list[list[Fraction]]:
    base = points[0]
    return [[Fraction(a) - b for a, b in zip(p, base)] for p in points[1:]]


def affine_chart_oracle(points: list[Point]) -> list[int]:
    """Pivot columns of the Fraction difference matrix p_i - p_0."""
    return fraction_reduce(_differences(points))[1] if points else []


def in_general_position_oracle(points: list[Point], d: int) -> bool:
    """No d+1 of the points affinely dependent, by Fraction elimination."""
    return all(
        len(affine_chart_oracle(list(sub))) == d for sub in combinations(points, d + 1)
    )


def hyperplane_through_oracle(points: list[Point]) -> Hyperplane | None:
    """The codimension-one hyperplane through the points, from the Fraction
    reduced difference system: +1 on its free column, minus the reduced
    entries on the pivot columns.  None when the codimension is not one."""
    d = len(points[0])
    rows, pivots = fraction_reduce(_differences(points))
    if len(pivots) != d - 1:
        return None
    free_col = next(c for c in range(d) if c not in pivots)
    normal = [Fraction(0)] * d
    normal[free_col] = Fraction(1)
    for r, col in enumerate(pivots):
        normal[col] = -rows[r][free_col]
    return Hyperplane.of(normal, _dot(normal, points[0]))


def side(h: Hyperplane, point: Point) -> int:
    """Exact sign of a.point - c for h: a.x = c, with h's row (-c, a): -1, 0,
    or +1, in Fractions."""
    if len(point) != h.dim:
        raise GeometryError(
            f"dimension mismatch: point has {len(point)} coordinates, "
            f"hyperplane normal has {h.dim}"
        )
    value = _dot(h.row[1:], point) + h.row[0]
    return (value > 0) - (value < 0)


def segment_hyperplane_intersection(p: Point, q: Point, h: Hyperplane) -> Point:
    """The unique point of segment [p, q] on h, from the Fraction line
    parameter; requires a strict crossing."""
    sp = side(h, p)
    sq = side(h, q)
    if sp * sq != -1:
        raise GeometryError(
            f"segment does not strictly cross the hyperplane (sides {sp}, {sq})"
        )
    ap = _dot(h.row[1:], p)
    aq = _dot(h.row[1:], q)
    t = (-h.row[0] - ap) / (aq - ap)
    return tuple(a + t * (b - a) for a, b in zip(p, q))


def hull_membership_oracle(points: list[Point], p: Point) -> bool:
    """Caratheodory route: p is in the hull iff some affinely independent
    subset of at most d+1 points contains it with nonnegative weights."""
    d = len(p)
    size = min(d + 1, len(points))
    for m in range(1, size + 1):
        for subset in combinations(points, m):
            if affine_rank_oracle(list(subset)) != m - 1:
                continue
            rows = [[q[j] for q in subset] for j in range(d)]
            rows.append([Fraction(1)] * m)
            rhs = list(p) + [Fraction(1)]
            coeffs = solve_exact(rows, rhs)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def gale_evenness_facets(n: int, d: int) -> set[frozenset[int]]:
    """Facet vertex sets of the cyclic polytope on n ordered curve points.

    A d-subset S is a facet iff every two indices outside S have an even
    number of S-members strictly between them.
    """
    out = set()
    for subset in combinations(range(n), d):
        s = set(subset)
        outside = [i for i in range(n) if i not in s]
        ok = True
        for a, b in combinations(outside, 2):
            between = sum(1 for x in s if a < x < b)
            if between % 2 == 1:
                ok = False
                break
        if ok:
            out.add(frozenset(s))
    return out


def brute_force_facets(p: VPolytope) -> list[tuple[tuple[int, ...], Hyperplane]]:
    """(vertex set, hyperplane a.v <= c) per facet, sorted by vertex set.

    Tries every d-subset of the points: an affinely independent one spans a
    hyperplane, which supports a facet when no point lies strictly on each
    side.  This was the library's own route before double description.
    """
    d = p.ambient_dim
    points = rational_points(p)
    found: dict[tuple[int, ...], Hyperplane] = {}
    for subset in combinations(range(p.n_vertices), d):
        h = hyperplane_through([p.rows[i] for i in subset])
        if h is None:
            continue
        sides = [side(h, v) for v in points]
        if 1 in sides and -1 in sides:
            continue
        if 1 in sides:
            h = Hyperplane([-x for x in h.row])
            sides = [-s for s in sides]
        found.setdefault(tuple(i for i, s in enumerate(sides) if s == 0), h)
    return sorted(found.items())


def closure_lattice(
    p: VPolytope,
) -> tuple[dict[tuple[int, ...], int], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Faces with their dims, and the covers, from pairwise facet intersections.

    Closes the brute-force facet sets plus the full set under pairwise
    intersection until nothing new appears, takes each dim as the affine rank
    by minors, and lists the covers in (child dim, child set, parent set)
    order by scanning every pair of adjacent levels.
    """
    sets = {frozenset(range(p.n_vertices))}
    sets.update(frozenset(vs) for vs, _ in brute_force_facets(p))
    while True:
        fresh = {a & b for a, b in combinations(sets, 2)} - sets
        if not fresh:
            break
        sets |= fresh
    sets.add(frozenset())
    points = rational_points(p)
    dims = {
        tuple(sorted(s)): affine_rank_oracle([points[i] for i in sorted(s)])
        for s in sets
    }
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for vs in sorted(dims):
        by_dim.setdefault(dims[vs], []).append(vs)
    covers = [
        (child, parent)
        for k in sorted(by_dim)[:-1]
        for child in by_dim[k]
        for parent in by_dim[k + 1]
        if set(child) <= set(parent)
    ]
    return dims, covers


def chart_lattice(points: list[Point], normal: tuple[int, ...]) -> FaceLattice:
    """Geometric reconstruction of the lattice of points lying on a hyperplane.

    Dropping the coordinate of the normal's first nonzero entry is an affine
    bijection from the hyperplane onto a full-dimensional chart, so the face
    lattice computed there (by ordinary facet enumeration) is the slice's own
    lattice with identical vertex indexing.
    """
    pivot = next(j for j, a in enumerate(normal) if a != 0)
    projected = [QVector.of([x for j, x in enumerate(v) if j != pivot]) for v in points]
    return VPolytope.from_points(projected, validate=False).lattice


def assert_section_isomorphism(p: VPolytope, h: Hyperplane, smap) -> None:
    """Full two-route audit of the slice of p by h: the combinatorial map must
    be a poset isomorphism onto the slice lattice, and the slice lattice must
    equal the geometric reconstruction from the slice points alone."""
    lattice, slice_lattice = p.lattice, smap.slice_polytope.lattice
    to_slice = {
        lattice.face_of_mask(b).id: slice_lattice.face_of_mask(s).id
        for b, s in smap.phi.items()
    }

    # injectivity: no two cut faces share a slice face
    assert len(set(to_slice.values())) == len(to_slice)

    # domain is exactly the strictly cut faces, recomputed from raw sides
    points = rational_points(p)
    for f in lattice.faces:
        if f.dim < 1:
            continue
        signs = {side(h, points[i]) for i in f.vertex_set}
        assert 0 not in signs
        assert (f.id in to_slice) == (signs == {-1, 1})

    # independent geometric route: project the slice onto a chart and
    # enumerate its faces from scratch
    chart = chart_lattice(rational_points(smap.slice_polytope), h.row[1:])
    assert {f.vertex_set for f in chart.faces} == {
        f.vertex_set for f in slice_lattice.faces
    }
    for f in chart.faces:
        assert slice_lattice.face_of_set(f.vertex_set).dim == f.dim

    # dimension shift and inclusion in both directions
    for fid, sid in to_slice.items():
        assert slice_lattice.face(sid).dim == lattice.face(fid).dim - 1
    cut_ids = sorted(to_slice)
    for a in cut_ids:
        for b in cut_ids:
            forward = set(lattice.face(a).vertex_set) <= set(lattice.face(b).vertex_set)
            backward = set(slice_lattice.face(to_slice[a]).vertex_set) <= set(
                slice_lattice.face(to_slice[b]).vertex_set
            )
            assert forward == backward

    # surjectivity onto proper nonempty slice faces, plus the full face
    image = {slice_lattice.face(sid).vertex_set for sid in to_slice.values()}
    expected = {
        f.vertex_set for f in slice_lattice.faces if f.dim >= 0
    }
    assert image == expected
    assert euler_characteristic_holds(slice_lattice)


def slice_lattice_oracle(
    p: VPolytope, h: Hyperplane
) -> tuple[list[Face], dict[int, list[Face]], dict[int, list[Face]]]:
    """The slice of p by h as a face poset read off the base lattice: its
    faces in lattice order, and per face mask its children and its parents,
    each in lattice order.

    Slice vertex i is the i-th crossed edge in lattice order; the slice face
    of a larger cut face holds the crossed edges of its cut children.  A face
    containing a cut face is cut too, so the base covers among the cut faces
    are all of the slice's covers above its vertices, and every vertex covers
    the empty face.
    """
    lattice, points = p.lattice, rational_points(p)

    def is_cut(f: Face) -> bool:
        return {side(h, points[i]) for i in f.vertex_set} == {-1, 1}

    cut = [f for f in lattice.faces if is_cut(f)]
    edges = [f for f in cut if f.dim == 1]
    phi = {e.mask: 1 << i for i, e in enumerate(edges)}
    for f in cut:
        if f.dim > 1:
            phi[f.mask] = 0
            for c in lattice.children(f):
                phi[f.mask] |= phi.get(c.mask, 0)
    faces = sorted(
        [Face(0, -1)] + [Face(phi[f.mask], f.dim - 1) for f in cut],
        key=lambda f: (f.dim, f.vertex_set),
    )
    covers = [(0, phi[e.mask]) for e in edges]
    covers += [(phi[f.mask], phi[q.mask]) for f in cut for q in lattice.parents(f)]
    rank = {f.mask: i for i, f in enumerate(faces)}
    children: dict[int, list[Face]] = {f.mask: [] for f in faces}
    parents: dict[int, list[Face]] = {f.mask: [] for f in faces}
    for c, q in sorted((rank[c], rank[q]) for c, q in covers):
        children[faces[q].mask].append(faces[c])
        parents[faces[c].mask].append(faces[q])
    return faces, children, parents


def euler_characteristic_holds(lattice: FaceLattice) -> bool:
    """Euler-Poincare: the alternating sum of the proper nonempty face counts
    is 1 - (-1)^d."""
    total = sum((-1) ** k * fk for k, fk in enumerate(lattice.f_vector))
    return total == 1 - (-1) ** lattice.dim


def anti_isomorphism_oracle(p: VPolytope) -> dict[Face, Face] | None:
    """The facet-incidence map from p's face lattice onto its polar dual's,
    or None when that map is not an anti-isomorphism.

    F maps to the dual face on {j : F lies in facet j}, with the facets in
    `facets` order, which is the dual's vertex order.  Checked exhaustively
    from vertex sets: each image is a dual face of dimension
    dim(p) - 1 - dim(F), the map is a bijection, containment flips, and the
    covers map onto the dual's covers, reversed.  H_k is levels k and k+1
    with their covers, so this also carries its duality with the dual's
    (d-k-1)-skeleton.  Intended for desk-scale duals.
    """
    lattice, dual_lattice = p.lattice, polar_dual(p).lattice
    facet_sets = [set(f.vertex_set) for f, _ in facets(p)]
    members = {f: set(f.vertex_set) for f in lattice.faces}
    images = {}
    for f in lattice.faces:
        image = dual_lattice.face_of_set(
            j for j, facet in enumerate(facet_sets) if members[f] <= facet
        )
        if image is None or image.dim != lattice.dim - 1 - f.dim:
            return None
        images[f] = image
    if not len(set(images.values())) == len(images) == len(dual_lattice.faces):
        return None
    image_members = {f: set(images[f].vertex_set) for f in lattice.faces}
    for a in lattice.faces:
        for b in lattice.faces:
            if (members[a] <= members[b]) != (image_members[b] <= image_members[a]):
                return None
    image_ids = {f.id: images[f].id for f in lattice.faces}
    covers = lattice.to_json_dict()["inclusions"]
    reversed_covers = {(image_ids[q], image_ids[c]) for c, q in covers}
    if reversed_covers != {tuple(pair) for pair in dual_lattice.to_json_dict()["inclusions"]}:
        return None
    return images


def assert_hypergraphs_are_dual(p: VPolytope) -> None:
    """p's lattice is anti-isomorphic to its dual's, and each H_k's
    incidences are the dual's reversed: a k-face lies in a (k+1)-face
    exactly when the dual image of the larger lies in that of the smaller."""
    lattice = p.lattice
    images = anti_isomorphism_oracle(p)
    assert images is not None
    for k in range(lattice.dim):
        hg = build_hypergraph(lattice, k)
        for eid, members in hg.hyperedges:
            e_image = set(images[lattice.face(eid)].vertex_set)
            for node in hg.nodes:
                n_image = set(images[lattice.face(node)].vertex_set)
                assert (node in members) == (e_image <= n_image), (k, eid, node)


def hypergraph_oracle(
    lattice: FaceLattice, k: int
) -> tuple[tuple[str, ...], tuple[tuple[str, frozenset[str]], ...]]:
    """H_k with ids for nodes, the way the library once built it: the k-face
    ids in lattice order, and per (k+1)-face in lattice order its id with
    the frozenset of its children's ids."""
    nodes = tuple(f.id for f in lattice.faces_of_dim(k))
    hyperedges = tuple(
        (e.id, frozenset(c.id for c in lattice.children(e)))
        for e in lattice.faces_of_dim(k + 1)
    )
    return nodes, hyperedges


def connected_after_removal_oracle(
    nodes: list[str],
    hyperedges: list[tuple[str, frozenset[str]]],
    removed: set[str],
) -> bool:
    """Union-find over surviving co-hyperedge pairs."""
    survivors = [n for n in nodes if n not in removed]
    if len(survivors) <= 1:
        return True
    parent = {n: n for n in survivors}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for _, members in hyperedges:
        if not members.isdisjoint(removed):
            continue
        first, *others = members
        for other in others:
            union(first, other)
    roots = {find(n) for n in survivors}
    return len(roots) == 1


def first_component_oracle(n_nodes: int, edge_masks: Sequence[int], removed: int) -> int:
    """Node mask of the lowest survivor's component; 0 when none survives.

    The component grows by absorbing every live hyperedge (one missing the
    removed nodes) that touches it, until a pass over the remaining
    hyperedges absorbs nothing new.  The first pass drops the killed
    hyperedges.  Passes alternate direction, so a chain of hyperedges is
    absorbed in one or two passes whichever way it runs, and the search
    stops as soon as the component holds every survivor.
    """
    survivors = ((1 << n_nodes) - 1) & ~removed
    comp = survivors & -survivors
    grown = None
    while grown != comp:
        grown = comp
        rest = []
        for m in edge_masks:
            if m & removed:
                continue
            if m & comp:
                comp |= m
                if comp == survivors:
                    return comp
            else:
                rest.append(m)
        edge_masks = rest[::-1]
    return comp


def first_disconnecting_set_oracle(hg: FaceHypergraph, cap: int) -> ConnectivityReport:
    """The report of a plain scan: every removal set of size below cap, in
    `combinations` order by size.  Each set gets its own depth-first search
    on node bitmasks read off the id views: from the first survivor, each
    reached node's hyperedges that hold no removed node add their members.
    The witness splits the survivors into that component and the rest, each
    in node order."""
    nodes = list(hg.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    edges = [sum(1 << index[node] for node in members) for _, members in hg.hyperedges]
    incident = {1 << i: [edge for edge in edges if edge >> i & 1] for i in range(len(nodes))}
    everyone = (1 << len(nodes)) - 1
    for size in range(min(cap, len(nodes) + 1)):
        for removed in combinations(range(len(nodes)), size):
            gone = sum(1 << i for i in removed)
            survivors = everyone & ~gone
            if survivors & (survivors - 1) == 0:
                continue  # at most one survivor
            component = survivors & -survivors
            todo = [component]  # masks of reached nodes still to expand
            while todo and component != survivors:
                mask = todo.pop()
                node = mask & -mask
                if mask != node:
                    todo.append(mask ^ node)
                for edge in incident[node]:
                    new = edge & ~component
                    if new and not edge & gone:
                        component |= new
                        todo.append(new)
            if component == survivors:
                continue
            witness = DisconnectionWitness(
                tuple(nodes[i] for i in removed),
                tuple(n for i, n in enumerate(nodes) if component >> i & 1),
                tuple(n for i, n in enumerate(nodes) if (survivors & ~component) >> i & 1),
            )
            return ConnectivityReport(hg.k, size, False, witness)
    return ConnectivityReport(hg.k, cap, True, None)


def group_closure(generators, n: int) -> set[tuple[int, ...]]:
    """Every permutation of range(n) the generators compose to, by
    breadth-first closure from the identity."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def automorphisms_oracle(n: int, facet_sets: list[frozenset[int]]) -> set[tuple[int, ...]]:
    """Every vertex permutation that maps the set of facets onto itself.

    Vertices 0, 1, ... get their images in turn, over every unused vertex.
    A partial map on the vertices A is kept only while it carries the traces
    F & A of the facets onto the traces G & image(A), which every
    automorphism's restriction does; on all vertices that is the definition.
    """
    facet_family = set(facet_sets)
    found = set()

    def extend(images: list[int]) -> None:
        if len(images) == n:
            found.add(tuple(images))
            return
        for x in range(n):
            if x in images:
                continue
            trial = images + [x]
            domain = set(range(len(trial)))
            traces = {frozenset(trial[v] for v in f & domain) for f in facet_family}
            if traces == {f & set(trial) for f in facet_family}:
                extend(trial)

    extend([])
    assert all({frozenset(g[v] for v in f) for f in facet_family} == facet_family for g in found)
    return found


def find_isolating_set(hg: FaceHypergraph, node: str) -> tuple[str, ...] | None:
    """Greedy picks, one per hyperedge containing the node, that isolate it.

    Each hyperedge through the node not yet hit contributes its first other
    node in node order.  Returns the picks in node order when removing them
    leaves the node with no surviving incident hyperedge while at least one
    other node survives; None otherwise.
    """
    order = {n: i for i, n in enumerate(hg.nodes)}
    picks: set[str] = set()
    for _, members in hg.hyperedges:
        others = members - {node}
        if node in members and others and not picks & others:
            picks.add(min(others, key=order.__getitem__))
    if not picks or len(picks) >= hg.n_nodes - 1:
        return None
    if any(node in m and m != {node} and not m & picks for _, m in hg.hyperedges):
        return None
    return tuple(sorted(picks, key=order.__getitem__))


def bfs_ridge_path_oracle(
    lattice: FaceLattice,
    k: int,
    blocked: set[str],
    start: str,
    goal: str,
) -> list[str] | None:
    """Shortest path in the pruned ridge graph, or None.

    Adjacency computed from raw vertex sets: two surviving k-faces join when
    their vertex-set intersection is a lattice face of dimension k-1 that is
    not inside any blocked face.  Each face's neighbours are visited in
    sorted vertex-set order, so among shortest paths this one is the first
    that a search in lattice order finds.
    """
    faces = {f.id: set(f.vertex_set) for f in lattice.faces_of_dim(k)}
    blocked_sets = [faces[b] for b in blocked]
    by_set = {f.vertex_set: f for f in lattice.faces}
    alive = sorted((fid for fid in faces if fid not in blocked), key=lambda x: sorted(faces[x]))

    def adjacent(a: str, b: str) -> bool:
        cut = tuple(sorted(faces[a] & faces[b]))
        ridge = by_set.get(cut)
        if ridge is None or ridge.dim != k - 1:
            return False
        return not any(set(ridge.vertex_set) <= bs for bs in blocked_sets)

    if start not in alive or goal not in alive:
        return None
    prev: dict[str, str | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            if cur == goal:
                path = [cur]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return list(reversed(path))
            for other in alive:
                if other not in prev and adjacent(cur, other):
                    prev[other] = cur
                    nxt.append(other)
        frontier = nxt
    return None


def interior_point_oracle(p: VPolytope, vertices: Sequence[int]) -> Point:
    """The point sum(x_i) / sum(x0_i) over the rows (x0_i, x_i) of the given
    vertices, in Fractions: their convex combination with weights
    x0_i / sum(x0), each positive, so a relative-interior point of their hull."""
    rows = [p.rows[i] for i in vertices]
    total = sum(row[0] for row in rows)
    return tuple(Fraction(sum(column), total) for column in list(zip(*rows))[1:])


def hyperplane_conditions_oracle(
    p: VPolytope, f_vertices: tuple[int, ...], g_vertices: tuple[int, ...],
    r_vertices: tuple[int, ...], normal: Point, offset: Fraction,
) -> bool:
    """The three acceptance conditions for a cutting hyperplane, from scratch:
    through `interior_point_oracle` of f and of g, off every vertex, and
    with r's vertices on one side."""
    points = rational_points(p)

    def value(v: Point) -> Fraction:
        return _dot(normal, v) - offset

    for face in (f_vertices, g_vertices):
        if value(interior_point_oracle(p, face)) != 0:
            return False
    if any(value(v) == 0 for v in points):
        return False
    r_signs = {value(points[i]) > 0 for i in r_vertices}
    return len(r_signs) == 1


@lru_cache(maxsize=None)
def _facets_oracle(p: VPolytope) -> list[tuple[tuple[int, ...], Hyperplane]]:
    """`brute_force_facets`, once per polytope."""
    return brute_force_facets(p)


def cutting_hyperplane_oracle(
    p: VPolytope, f: Face, g: Face, r: Face
) -> tuple[tuple[int, ...], int] | None:
    """The cutting-hyperplane search in Fractions: the primitive integer row
    (-c, a) of the plane a.x = c it returns and its attempt count, or None
    where it must fail.

    The closed form, with points as rows (1, x): bf and bg the
    `interior_point_oracle` of f and g, each facet's row (-c, a) from
    `brute_force_facets`, and C the sum of the rows of the facets holding r.
    With q0 = C.bg - C.bf zero the normal row is C - (C.bf) e0.  Otherwise A
    is the first facet row, by vertex set, with A.q q0 > 0 at
    q = (C.bg) bf - (C.bf) bg, and the row is alpha C + beta A + gamma e0,
    (alpha, beta, gamma) = (C.bf, A.bf, 1) x (C.bg, A.bg, 1).  Then, if the
    plane grazes a vertex, the moment-curve nudge of a, the row's last d
    entries: for s = 1, 2, ... up to m (d - 1) + 1, m the grazed vertices,
    it takes u0 = (1, s, ..., s^(d-1)), projects it to u = (w.w) u0 -
    (u0.w) w, w = bg - bf, and at the first u off every grazed vertex steps
    a + t u with t the least |a.(v - b)| / (2 (|u.(v - b)| + 1)) over the
    vertices off the plane, b f's point.
    """
    d = p.ambient_dim
    points = rational_points(p)
    b, bg_point = (interior_point_oracle(p, x.vertex_set) for x in (f, g))
    w = tuple(x - y for x, y in zip(bg_point, b))
    bf, bg = (Fraction(1), *b), (Fraction(1), *bg_point)
    facet_rows = [h.row for _, h in _facets_oracle(p)]
    holding = [h.row for on, h in _facets_oracle(p) if set(r.vertex_set) <= set(on)]
    total = [sum(column) for column in zip(*holding)]
    cf, cg = _dot(total, bf), _dot(total, bg)
    q0 = cg - cf
    if q0 == 0:
        normal = [total[0] - cf, *total[1:]]
    else:
        crossing = [cg * x - cf * y for x, y in zip(bf, bg)]
        found = [row for row in facet_rows if _dot(row, crossing) * q0 > 0]
        if not found:
            return None
        af, ag = _dot(found[0], bf), _dot(found[0], bg)
        alpha, beta, gamma = af - ag, q0, cf * ag - af * cg
        normal = [alpha * x + beta * y for x, y in zip(total, found[0])]
        normal[0] += gamma
    a = normal[1:]
    attempts = 1
    diffs = [tuple(x - y for x, y in zip(v, b)) for v in points]
    values = [_dot(a, diff) for diff in diffs]
    if not all(values):
        offenders = [i for i, value in enumerate(values) if value == 0]
        ww = _dot(w, w)
        for s in range(1, len(offenders) * (d - 1) + 2):
            attempts += 1
            u0 = [Fraction(s**i) for i in range(d)]
            u = [c * ww - wc * _dot(u0, w) for c, wc in zip(u0, w)]
            pair = [_dot(u, diff) for diff in diffs]
            if any(pair[i] == 0 for i in offenders):
                continue
            step = min(
                abs(value) / (2 * (abs(q) + 1)) for value, q in zip(values, pair) if value
            )
            a = [c + step * e for c, e in zip(a, u)]
            break
        else:
            return None
    entries = (-_dot(a, b), *a)
    scale = lcm(*(e.denominator for e in entries))
    row = [e.numerator * (scale // e.denominator) for e in entries]
    common = gcd(*row)
    row = tuple(e // common for e in row)
    sides = [row[0] + _dot(row[1:], v) for v in points]
    if not all(sides) or len({sides[i] > 0 for i in r.vertex_set}) != 1:
        return None
    return row, attempts
