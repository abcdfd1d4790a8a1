"""V-representation polytopes, facet enumeration, face lattices, polar duality.

A face is the bitmask of the polytope vertices lying on it, plus its
dimension; containment and intersection are mask operations, and face ids
('v0-v2-v5') are parsed and printed only at the edges.  Facets come from one
exact double-description pass over integer rows.  A `FaceLattice` is one
top-down walk over a cover rule: the sweep over a polytope's facet vertex
sets, or a section's restriction of its base lattice.  A polytope owns its
lattice: it builds it on the first read of `lattice`.  All geometry is exact.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .geometry import (
    FacelabError,
    GeometryError,
    Hyperplane,
    QVector,
    dot,
    eliminate,
    format_point,
    interior_point,
    parse_rational,
    primitive,
    quote,
)


class PolytopeError(FacelabError):
    """Invalid polytope data or an unsatisfied operation precondition."""


EMPTY_FACE_ID = "empty"


def mask_of(indices: Iterable[int]) -> int:
    """The bitmask with bit i set for each index i."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def indices_of(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def face_id(mask: int) -> str:
    """Canonical id for the face with this vertex mask: 'v<i>-v<j>-...' over
    its vertex indices ascending, or 'empty' for 0."""
    return "-".join(f"v{i}" for i in indices_of(mask)) or EMPTY_FACE_ID


class Face(NamedTuple):
    """A face of a polytope: the bitmask of the vertices on it, and its dimension."""

    mask: int
    dim: int

    @property
    def vertex_set(self) -> tuple[int, ...]:
        return indices_of(self.mask)

    @property
    def id(self) -> str:
        return face_id(self.mask)


def _initial_cone(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The first linearly independent rows, in input order, rank-many, and
    the extreme rays of the simplicial cone they cut out.

    Ray j is zero on every chosen row but row j, and negative on row j, the
    sign of a facet row.  One fraction-free elimination of [rows^T | I] gives
    them all: right-block row j dotted with row i is left-block entry (j, i),
    and the left-block pivot columns are the chosen rows.  Rows that do not
    span their space go on to pivot in the right block; that adds vectors
    zero on every row to the top rows and may scale them by a negative
    factor, so each ray takes the opposite sign of its own pivot entry.
    """
    n, size = len(rows), len(rows[0])
    augmented = [
        [*column, *(int(r == c) for c in range(size))] for r, column in enumerate(zip(*rows))
    ]
    mat, pivots = eliminate(augmented)
    chosen = [c for c in pivots if c < n]
    rays = [
        primitive([-x if row[c] > 0 else x for x in row[n:]]) for row, c in zip(mat, chosen)
    ]
    return chosen, rays


def _double_description(
    rows: Sequence[Sequence[int]], cone: tuple[list[int], list[tuple[int, ...]]]
) -> dict[int, tuple[int, ...]]:
    """Extreme rays of the cone {x : row . x <= 0 for every row}, each up to
    the lineality space {x : row . x = 0 for every row}.

    Starting from the simplicial cone on the first independent rows, given
    by `_initial_cone(rows)`, each remaining row is added in input order:
    rays on its nonpositive side stay, and each (-, +) pair of adjacent rays
    is combined into a new ray on the row's hyperplane.  Adjacency is the
    combinatorial test: the pair's common zero set has at least size-2 rows,
    size the rank of the rows, and no other ray's zero set contains it.
    Maps each ray's zero set, a bitmask over row indices, to the ray, a
    primitive integer vector; on vertex rows these are the facet rows.
    """
    chosen, rays = cone
    size = len(chosen)
    masks = [mask_of(i for i in chosen if i != j) for j in chosen]
    skip = set(chosen)
    for i, row in enumerate(rows):
        if i in skip:
            continue
        bit = 1 << i
        values = [dot(row, ray) for ray in rays]
        positive = [k for k, v in enumerate(values) if v > 0]
        negative = [k for k, v in enumerate(values) if v < 0]
        new_rays = [ray for ray, v in zip(rays, values) if v <= 0]
        new_masks = [m | bit if v == 0 else m for m, v in zip(masks, values) if v <= 0]
        for a in negative:
            for b in positive:
                common = masks[a] & masks[b]
                if common.bit_count() < size - 2:
                    continue
                # Only a and b themselves may have zero sets containing it.
                if sum(1 for m in masks if common & m == common) > 2:
                    continue
                va, vb = -values[a], values[b]
                new_rays.append(
                    primitive([va * y + vb * x for x, y in zip(rays[a], rays[b])])
                )
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return dict(zip(masks, rays))


class VPolytope:
    """Polytope given by its vertex list; dim is the rank of the affine hull.

    Each vertex is its primitive homogeneous integer row (x0 > 0, x), and the
    rows are the whole value: the ambient dimension and the hull's dimension
    follow from them.  Immutable; equal and hashed by its rows.
    """

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        if not rows:
            raise PolytopeError("a polytope needs at least one vertex")
        if any(len(row) != len(rows[0]) for row in rows):
            raise PolytopeError("all vertices must share the ambient dimension")
        # Primitive rows with x0 > 0 are equal exactly when their points are.
        if len(set(rows)) != len(rows):
            raise PolytopeError("duplicate vertices in input")
        self.__dict__.update(rows=rows, ambient_dim=len(rows[0]) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("VPolytope is immutable")

    def __delattr__(self, name):
        raise AttributeError("VPolytope is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    @classmethod
    def from_points(cls, points: Sequence[QVector], validate: bool = True) -> VPolytope:
        polytope = cls(tuple(p.row for p in points))
        if validate:
            polytope._check_vertices()
        return polytope

    def plane_values(self, h: Hyperplane) -> list[int]:
        """Per vertex v, a positive multiple of a.v - c, for h the plane a.x = c.

        Their signs are the vertices' sides of h; a zero is a vertex on h.
        Each is the dot product of h's row with the vertex's row.
        """
        return [dot(h.row, row) for row in self.rows]

    @cached_property
    def _cone(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """The initial cone of double description; its size is the rank of
        the rows."""
        return _initial_cone(self.rows)

    @cached_property
    def dim(self) -> int:
        """The rank of the rows less one; `section` sets a slice's from its lattice."""
        return len(self._cone[0]) - 1

    @cached_property
    def facet_rows(self) -> dict[int, tuple[int, ...]]:
        """Each facet's vertex mask and its row R: R.v <= 0 on every vertex
        row v, with equality exactly on the facet.

        The rays of double description on the vertex rows; a facet a.x <= c
        has row (-c, a), and for a lower-dimensional polytope the row is
        fixed only up to a vector zero on every vertex row.  `section` sets a
        slice's rows to its base's, which stay valid there, so a slice runs
        no double description.
        """
        return _double_description(self.rows, self._cone)

    def _check_vertices(self) -> None:
        """Point i is a vertex iff the facets through it meet in {i} alone."""
        everything = (1 << self.n_vertices) - 1
        for i in range(self.n_vertices):
            tight = everything
            for mask in self.facet_rows:
                if mask >> i & 1:
                    tight &= mask
            if tight != 1 << i:
                raise PolytopeError(
                    f"input point {i} is not a vertex (inside the hull of the rest)"
                )

    @property
    def n_vertices(self) -> int:
        return len(self.rows)

    @cached_property
    def lattice(self) -> FaceLattice:
        """The face lattice, built by `face_lattice` on first read."""
        return face_lattice(self)


def facets(p: VPolytope) -> list[tuple[Face, Hyperplane]]:
    """All (d-1)-faces with supporting hyperplanes oriented so a.v <= c holds.

    Read off `p.facet_rows`; sorted by vertex set.
    """
    d = p.ambient_dim
    if p.dim != d:
        raise PolytopeError(
            f"facet enumeration needs a full-dimensional polytope "
            f"(dim {p.dim} in ambient {d})"
        )
    out = [(Face(mask, d - 1), Hyperplane(row)) for mask, row in p.facet_rows.items()]
    out.sort(key=lambda pair: pair[0].vertex_set)
    return out


class FaceLattice:
    """The graded lattice of all faces, from the empty face up to the polytope.

    Built by one top-down walk from the full face over a cover rule: from
    the mask of a face above the vertices, the masks of the faces it covers.
    The level gives each face its dimension, and every vertex covers the
    empty face.  `face_lattice` passes the facet sweep, `section` the
    restriction of the base lattice.  Faces are kept by dimension, each
    grade sorted by vertex set; `faces` runs through the grades from the
    empty face up, which is the lattice order, and each face's children and
    parents are filed in that order, whatever order the rule gives them in.
    """

    def __init__(self, dim: int, n_vertices: int, covered: Callable[[int], Sequence[int]]):
        self.dim = dim
        self.n_vertices = n_vertices
        # levels[i] holds the masks of the faces of dimension dim - i, and
        # below[mask] the masks of the faces that face covers.
        level = [(1 << n_vertices) - 1]
        below: dict[int, Sequence[int]] = {}
        levels = [level]
        for _ in range(dim):
            below.update((face, covered(face)) for face in level)
            level = list({c for face in level for c in below[face]})
            levels.append(level)
        # The last level is the vertices, which cover the empty face.
        below.update(dict.fromkeys(level, [0]))
        below[0] = []
        levels.append([0])
        self._grades: list[list[Face]] = [
            [Face(mask, k) for mask in sorted(masks, key=indices_of)]
            for k, masks in zip(range(-1, dim + 1), reversed(levels))
        ]
        self.faces = tuple(f for grade in self._grades for f in grade)
        self._by_mask = {f.mask: f for f in self.faces}
        # Parents filed while walking the faces in lattice order come out
        # sorted, and so do children filed while walking them again.
        self._children: dict[int, list[Face]] = {f.mask: [] for f in self.faces}
        self._parents: dict[int, list[Face]] = {f.mask: [] for f in self.faces}
        for face in self.faces:
            for c in below[face.mask]:
                self._parents[c].append(face)
        for face in self.faces:
            for q in self._parents[face.mask]:
                self._children[q.mask].append(face)

    def __len__(self) -> int:
        return len(self.faces)

    def face(self, fid: str) -> Face:
        """The face with the given canonical id.

        Indices are bounded by the vertex count before any mask is built, and
        an id that names a face in any but its canonical spelling is unknown.
        """
        tokens = [] if fid == EMPTY_FACE_ID else str(fid).split("-")
        width = len(str(self.n_vertices))
        if all(t[:1] == "v" and t[1:].isdecimal() and len(t) <= width + 1 for t in tokens):
            indices = [int(t[1:]) for t in tokens]
            if all(i < self.n_vertices for i in indices):
                face = self._by_mask.get(mask_of(indices))
                if face is not None and face.id == fid:
                    return face
        raise PolytopeError(f"unknown face id {quote(str(fid))}")

    def face_of_mask(self, mask: int) -> Face | None:
        return self._by_mask.get(mask)

    def face_of_set(self, vertex_set: Iterable[int]) -> Face | None:
        return self._by_mask.get(mask_of(vertex_set))

    def faces_of_dim(self, k: int) -> list[Face]:
        if k < -1 or k > self.dim:
            raise PolytopeError(f"dimension {k} out of range [-1, {self.dim}]")
        return list(self._grades[k + 1])

    @property
    def full_face(self) -> Face:
        return self._grades[-1][0]

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Generators of the combinatorial automorphism group, as tuples of
        vertex images (see `facelab.symmetry`, loaded on first use)."""
        from .symmetry import automorphism_generators

        facets = [f.mask for f in self._grades[-2]]
        return automorphism_generators(self.n_vertices, facets)

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(grade) for grade in self._grades[1:-1])

    def _related(self, group: dict[int, list[Face]], face: Face) -> list[Face]:
        try:
            return list(group[face.mask])
        except KeyError:
            raise PolytopeError(f"unknown face {face.id!r}") from None

    def parents(self, face: Face) -> list[Face]:
        """Faces of dimension dim+1 containing the given face."""
        return self._related(self._parents, face)

    def children(self, face: Face) -> list[Face]:
        """Faces of dimension dim-1 contained in the given face."""
        return self._related(self._children, face)

    def to_json_dict(self) -> dict:
        """Faces in lattice order, and the covers as [child id, parent id]
        pairs ordered by child, then parent, each id built once."""
        ids = {f.mask: f.id for f in self.faces}
        return {
            "dim": self.dim,
            "f_vector": list(self.f_vector),
            "faces": [
                {"id": ids[f.mask], "dim": f.dim, "vertices": list(f.vertex_set)}
                for f in self.faces
            ],
            "inclusions": [
                [ids[c.mask], ids[q.mask]] for c in self.faces for q in self._parents[c.mask]
            ],
        }


def _maximal(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal members of a set of bitmasks."""
    kept: list[int] = []
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        for k in kept:
            if mask & k == mask:
                break
        else:
            kept.append(mask)
    return kept


def face_lattice(p: VPolytope) -> FaceLattice:
    """Full face lattice of p, swept over its facets (Kaibel & Pfetsch 2002): a
    face F covers the inclusion-maximal sets F & G, G a facet not containing F."""
    masks = [face.mask for face, _ in facets(p)]
    return FaceLattice(p.dim, p.n_vertices, lambda f: _maximal({f & g for g in masks if f & ~g}))


def polar_dual(p: VPolytope) -> VPolytope:
    """Polar dual after translating the interior point of the vertex rows,
    `interior_point(p.rows)`, to the origin.

    Vertex j of the dual corresponds to the j-th facet of p in canonical
    order (`facets(p)`; a translation keeps every facet's vertex set); the
    face lattices are anti-isomorphic.  `facets` refuses a polytope that is
    not full-dimensional.
    """
    center = interior_point(p.rows)
    dual_points = []
    for _, h in facets(p):
        # Facet a.x <= c of p is a.x <= c - a.z/z0 after moving the center
        # (z0, z) to the origin, and c - a.z/z0 = -(h.row . center) / z0.  The
        # center is interior, so that offset is positive; the dual vertex
        # a / offset is the row (offset z0, a z0).
        offset = -dot(h.row, center)
        if offset <= 0:
            raise PolytopeError("unexpected non-positive facet offset after centering")
        dual_points.append(QVector(primitive([offset, *(center[0] * a for a in h.row[1:])])))
    return VPolytope.from_points(dual_points)


def format_polytope(p: VPolytope) -> str:
    lines = [f"polytope {p.ambient_dim} {p.n_vertices}"]
    for row in p.rows:
        lines.append(" ".join(format_point(row)))
    return "\n".join(lines) + "\n"


def parse_polytope(text: str) -> VPolytope:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PolytopeError("empty polytope file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "polytope":
        raise PolytopeError(f"bad header: expected 'polytope <d> <n>', got {quote(lines[0])}")
    # int() would also take '+4', '0_4' and non-ASCII digits.
    if not all(t.isascii() and t.removeprefix("-").isdecimal() for t in header[1:]):
        raise PolytopeError("bad header: dimensions must be integers")
    try:
        d, n = int(header[1]), int(header[2])
    except ValueError:  # longer than int() takes from a string
        raise PolytopeError("bad header: dimensions too large") from None
    if d < 1 or n < 1:
        raise PolytopeError("bad header: need d >= 1 and n >= 1")
    if len(lines) - 1 != n:
        raise PolytopeError(f"expected {n} vertex rows, found {len(lines) - 1}")
    points = []
    for row, line in enumerate(lines[1:], start=1):
        entries = line.split()
        if len(entries) != d:
            raise PolytopeError(f"row {row}: expected {d} coordinates, found {len(entries)}")
        try:
            points.append(QVector.of(parse_rational(e) for e in entries))
        except GeometryError as exc:
            raise PolytopeError(f"row {row}: {exc}") from None
    return VPolytope.from_points(points)


def load_polytope(path: str) -> VPolytope:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # A leading byte-order mark would spoil the header.
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise PolytopeError(f"not UTF-8: invalid byte at offset {exc.start}") from None
    return parse_polytope(text)


def save_polytope(p: VPolytope, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_polytope(p))
