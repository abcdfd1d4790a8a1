"""V-representation polytopes, facet enumeration, face lattices, polar duality.

Faces are identified combinatorially by the set of polytope vertices lying on
them; the face lattice is the intersection closure of the facet vertex sets
together with the empty and full faces.  All geometry is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .geometry import (
    GeometryError,
    Hyperplane,
    QVector,
    affine_rank,
    barycenter,
    format_rational,
    hyperplane_through,
    parse_rational,
    point_in_hull,
)


class PolytopeError(ValueError):
    """Invalid polytope data or an unsatisfied operation precondition."""


EMPTY_FACE_ID = "empty"

_FACE_ID_RE = re.compile(r"^v\d+(?:-v\d+)*$")


def face_id(vertex_set: Iterable[int]) -> str:
    """Canonical id for a face: 'v<i>-v<j>-...' over sorted vertex indices."""
    indices = sorted(vertex_set)
    if not indices:
        return EMPTY_FACE_ID
    return "-".join(f"v{i}" for i in indices)


def parse_face_id(text: str) -> tuple[int, ...]:
    token = text.strip()
    if token == EMPTY_FACE_ID:
        return ()
    if not _FACE_ID_RE.match(token):
        raise PolytopeError(f"malformed face id {token!r}")
    indices = tuple(int(part[1:]) for part in token.split("-"))
    if list(indices) != sorted(set(indices)):
        raise PolytopeError(f"face id {token!r} is not sorted and duplicate-free")
    return indices


@dataclass(frozen=True)
class Face:
    """A face of a polytope, identified by the vertices lying on it."""

    vertex_set: tuple[int, ...]
    dim: int

    def __post_init__(self) -> None:
        if list(self.vertex_set) != sorted(set(self.vertex_set)):
            raise PolytopeError("face vertex_set must be sorted and duplicate-free")

    @property
    def id(self) -> str:
        return face_id(self.vertex_set)

    def contains(self, other: Face) -> bool:
        return set(other.vertex_set) <= set(self.vertex_set)


@dataclass(frozen=True)
class VPolytope:
    """Polytope given by its vertex list; dim is the rank of the affine hull."""

    vertices: tuple[QVector, ...]
    ambient_dim: int
    dim: int

    @classmethod
    def from_points(cls, points: Sequence[QVector], validate: bool = True) -> VPolytope:
        pts = tuple(points)
        if not pts:
            raise PolytopeError("a polytope needs at least one vertex")
        ambient = pts[0].dim
        if any(p.dim != ambient for p in pts):
            raise PolytopeError("all vertices must share the ambient dimension")
        if len(set(pts)) != len(pts):
            raise PolytopeError("duplicate vertices in input")
        if validate:
            for i, p in enumerate(pts):
                others = pts[:i] + pts[i + 1 :]
                if others and point_in_hull(others, p):
                    raise PolytopeError(
                        f"input point {i} is not a vertex (inside the hull of the rest)"
                    )
        return cls(pts, ambient, affine_rank(pts))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def points_of(self, indices: Iterable[int]) -> tuple[QVector, ...]:
        return tuple(self.vertices[i] for i in indices)

    def face_barycenter(self, face: Face) -> QVector:
        return barycenter(self.points_of(face.vertex_set))


def facets(p: VPolytope) -> list[tuple[Face, Hyperplane]]:
    """All (d-1)-faces with supporting hyperplanes oriented so a.v <= c holds.

    Brute force over affinely independent d-subsets of vertices with exact
    one-sidedness tests; fine at desk scale and easy to audit.
    """
    d = p.ambient_dim
    if p.dim != d:
        raise PolytopeError(
            f"facet enumeration needs a full-dimensional polytope "
            f"(dim {p.dim} in ambient {d})"
        )
    found: dict[tuple[int, ...], Hyperplane] = {}
    for subset in combinations(range(p.n_vertices), d):
        h = hyperplane_through(p.points_of(subset))
        if h is None:
            continue
        sides = [h.side(v) for v in p.vertices]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            continue
        if any(s > 0 for s in sides):
            h = h.flipped().canonical()
            sides = [-s for s in sides]
        on_set = tuple(i for i, s in enumerate(sides) if s == 0)
        found.setdefault(on_set, h)
    out = []
    for on_set in sorted(found):
        pts = p.points_of(on_set)
        out.append((Face(on_set, affine_rank(pts)), found[on_set]))
    return out


class FaceLattice:
    """The graded lattice of all faces, from the empty face up to the polytope."""

    def __init__(self, dim: int, faces: Sequence[Face]):
        self.dim = dim
        self.faces = tuple(sorted(faces, key=lambda f: (f.dim, f.vertex_set)))
        self._by_id = {f.id: f for f in self.faces}
        self._by_set = {f.vertex_set: f for f in self.faces}
        if len(self._by_id) != len(self.faces):
            raise PolytopeError("duplicate faces in lattice")
        for k in (-1, dim):
            if len(self.faces_of_dim(k)) != 1:
                raise PolytopeError(f"lattice must have exactly one face of dim {k}")

    @classmethod
    def from_vertex_sets(
        cls, points: Sequence[QVector], vertex_sets: Iterable[Iterable[int]]
    ) -> FaceLattice:
        """Build a lattice from vertex-index sets, computing dims by affine rank."""
        sets = {tuple(sorted(s)) for s in vertex_sets}
        sets.add(())
        faces = [Face(s, affine_rank([points[i] for i in s])) for s in sets]
        dim = max(f.dim for f in faces)
        return cls(dim, faces)

    def __len__(self) -> int:
        return len(self.faces)

    def face(self, fid: str) -> Face:
        try:
            return self._by_id[fid]
        except KeyError:
            raise PolytopeError(f"unknown face id {fid!r}") from None

    def has_face(self, fid: str) -> bool:
        return fid in self._by_id

    def face_of_set(self, vertex_set: Iterable[int]) -> Face | None:
        return self._by_set.get(tuple(sorted(vertex_set)))

    def faces_of_dim(self, k: int) -> list[Face]:
        if k < -1 or k > self.dim:
            raise PolytopeError(f"dimension {k} out of range [-1, {self.dim}]")
        return [f for f in self.faces if f.dim == k]

    @property
    def full_face(self) -> Face:
        return self.faces[-1]

    @property
    def empty_face(self) -> Face:
        return self.faces[0]

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * self.dim
        for f in self.faces:
            if 0 <= f.dim < self.dim:
                counts[f.dim] += 1
        return tuple(counts)

    def meet(self, a: Face, b: Face) -> Face:
        """The face whose vertex set is the intersection of a's and b's."""
        common = set(a.vertex_set) & set(b.vertex_set)
        face = self.face_of_set(common)
        if face is None:
            raise PolytopeError(
                "lattice is not intersection-closed: "
                f"{face_id(common)!r} from {a.id!r} and {b.id!r} is missing"
            )
        return face

    def smallest_face_containing(self, a: Face, b: Face) -> Face:
        """The inclusion-minimal face containing both vertex sets (lattice join)."""
        union = set(a.vertex_set) | set(b.vertex_set)
        candidates = [f for f in self.faces if union <= set(f.vertex_set)]
        best = min(candidates, key=lambda f: (f.dim, len(f.vertex_set)))
        for f in candidates:
            if not f.contains(best):
                raise PolytopeError("join is not unique; lattice is malformed")
        return best

    @cached_property
    def covering_pairs(self) -> list[tuple[str, str]]:
        """(child id, parent id) pairs with dim(parent) = dim(child) + 1."""
        pairs = []
        by_dim = {k: self.faces_of_dim(k) for k in range(-1, self.dim + 1)}
        for k in range(-1, self.dim):
            for child in by_dim[k]:
                for parent in by_dim[k + 1]:
                    if parent.contains(child):
                        pairs.append((child.id, parent.id))
        return pairs

    def parents(self, face: Face) -> list[Face]:
        """Faces of dimension dim+1 containing the given face."""
        if face.dim >= self.dim:
            return []
        return [g for g in self.faces_of_dim(face.dim + 1) if g.contains(face)]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "f_vector": list(self.f_vector),
            "faces": [
                {"id": f.id, "dim": f.dim, "vertices": list(f.vertex_set)}
                for f in self.faces
            ],
            "inclusions": [list(pair) for pair in self.covering_pairs],
        }

    def euler_characteristic_holds(self) -> bool:
        total = sum((-1) ** k * fk for k, fk in enumerate(self.f_vector))
        return total == 1 - (-1) ** self.dim


def face_lattice(p: VPolytope) -> FaceLattice:
    """Full face lattice: intersection closure of facet vertex sets.

    Every proper face is the intersection of the facets containing it, so the
    closure of the facet sets plus the full vertex set yields all faces.
    """
    facet_list = facets(p)
    sets: set[tuple[int, ...]] = {tuple(range(p.n_vertices))}
    sets.update(f.vertex_set for f, _ in facet_list)
    while True:
        fresh = set()
        for a, b in combinations(sets, 2):
            cut = tuple(sorted(set(a) & set(b)))
            if cut not in sets:
                fresh.add(cut)
        if not fresh:
            break
        sets.update(fresh)
    return FaceLattice.from_vertex_sets(p.vertices, sets)


def polar_dual(p: VPolytope) -> tuple[VPolytope, list[Face]]:
    """Polar dual after translating the vertex barycenter to the origin.

    Vertex j of the dual corresponds to the j-th facet of p in canonical
    order; the face lattices are anti-isomorphic.  Returns the dual and the
    facet faces of p aligned with the dual's vertex order.
    """
    d = p.ambient_dim
    if p.dim != d:
        raise PolytopeError("polar dual needs a full-dimensional polytope")
    center = barycenter(p.vertices)
    shifted = VPolytope.from_points(
        [v - center for v in p.vertices], validate=False
    )
    dual_points = []
    facet_faces = []
    for face, h in facets(shifted):
        # Origin is interior, so the a.x <= c orientation forces c > 0.
        if h.offset <= 0:
            raise PolytopeError("unexpected non-positive facet offset after centering")
        dual_points.append(h.normal.scaled(Fraction(1) / h.offset))
        facet_faces.append(face)
    return VPolytope.from_points(dual_points), facet_faces


def dual_face_map(facet_faces: Sequence[Face]):
    """Anti-isomorphism on vertex sets: F maps to {j : F inside facet j}."""

    def delta(face: Face) -> tuple[int, ...]:
        fs = set(face.vertex_set)
        return tuple(
            j for j, ff in enumerate(facet_faces) if fs <= set(ff.vertex_set)
        )

    return delta


def lattice_anti_isomorphic(p: VPolytope) -> bool:
    """Does the facet-incidence map give an inclusion-reversing lattice bijection?

    Checks, exhaustively, that F maps to a dual face of dimension
    dim(p) - 1 - dim(F), that the map is a bijection onto the dual lattice,
    and that containment flips direction.  Intended for desk-scale duals.
    """
    lattice = face_lattice(p)
    dual, facet_faces = polar_dual(p)
    dual_lattice = face_lattice(dual)
    delta = dual_face_map(facet_faces)
    images: dict[str, tuple[int, ...]] = {}
    for f in lattice.faces:
        img = delta(f)
        images[f.id] = img
        dual_face = dual_lattice.face_of_set(img)
        if dual_face is None or dual_face.dim != lattice.dim - 1 - f.dim:
            return False
    if len(set(images.values())) != len(lattice.faces):
        return False
    if len(lattice.faces) != len(dual_lattice.faces):
        return False
    for a in lattice.faces:
        for b in lattice.faces:
            forward = set(a.vertex_set) <= set(b.vertex_set)
            backward = set(images[b.id]) <= set(images[a.id])
            if forward != backward:
                return False
    return True


def format_polytope(p: VPolytope) -> str:
    lines = [f"polytope {p.ambient_dim} {p.n_vertices}"]
    for v in p.vertices:
        lines.append(" ".join(format_rational(x) for x in v.coords))
    return "\n".join(lines) + "\n"


def parse_polytope(text: str, validate: bool = True) -> VPolytope:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PolytopeError("empty polytope file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "polytope":
        raise PolytopeError(
            "bad header: expected 'polytope <d> <n>', got " + repr(lines[0])
        )
    try:
        d, n = int(header[1]), int(header[2])
    except ValueError:
        raise PolytopeError("bad header: dimensions must be integers") from None
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
    return VPolytope.from_points(points, validate=validate)


def load_polytope(path: str, validate: bool = True) -> VPolytope:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polytope(fh.read(), validate=validate)


def save_polytope(p: VPolytope, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_polytope(p))
