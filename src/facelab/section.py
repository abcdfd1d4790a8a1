"""Hyperplane sections of a polytope and the induced face-poset bijection.

Slicing a polytope by a hyperplane missing all vertices yields a polytope one
dimension down whose faces correspond exactly to the faces of the base that the
hyperplane cuts.  The slice lattice here is built from that correspondence
(crossed edges become slice vertices), not by fresh facet enumeration, so the
bijection is available by construction and stays exact under recursion.
"""

from __future__ import annotations

from functools import cached_property

from .geometry import (
    Hyperplane,
    QVector,
    parse_rational,
    segment_hyperplane_intersection,
)
from .polytope import Face, FaceLattice, VPolytope, mask_of


class SectionError(ValueError):
    """Degenerate or invalid section request."""


def parse_hyperplane(text: str) -> Hyperplane:
    """Parse 'a1,a2,...,ad;c' with rational entries."""
    parts = text.split(";")
    if len(parts) != 2:
        raise SectionError(
            f"malformed hyperplane {text!r}: expected 'a1,...,ad;c'"
        )
    try:
        normal = QVector.of(parse_rational(t) for t in parts[0].split(","))
        offset = parse_rational(parts[1])
        return Hyperplane(normal, offset)
    except ValueError as exc:
        raise SectionError(f"malformed hyperplane {text!r}: {exc}") from None


def cuts_face(h: Hyperplane, f: Face, p: VPolytope) -> bool:
    """True iff f has vertices strictly on both sides of h.

    Given no vertex on h this is equivalent to h meeting f.  A face vertex on
    h makes the query ill-posed and raises.
    """
    has_neg = has_pos = False
    for i in f.vertex_set:
        s = h.side(p.vertices[i])
        if s == 0:
            raise SectionError(f"vertex {i} lies on the hyperplane")
        if s > 0:
            has_pos = True
        else:
            has_neg = True
    return has_neg and has_pos


class SectionMap:
    """A sliced polytope plus the face bijection with its base.

    Slice vertex i is the crossing point of ``crossed_edges[i]``; slice faces
    keep ambient coordinates (they live on the plane), with the slice's
    intrinsic dimension one below the base's.  ``phi`` maps the mask of each
    cut base face to the mask of its slice face (a mask over crossed edges).
    """

    def __init__(
        self,
        base_polytope: VPolytope,
        base_lattice: FaceLattice,
        plane: Hyperplane,
        slice_polytope: VPolytope,
        slice_lattice: FaceLattice,
        crossed_edges: tuple[Face, ...],
        phi: dict[int, int],
    ) -> None:
        self.base_polytope = base_polytope
        self.base_lattice = base_lattice
        self.plane = plane
        self.slice_polytope = slice_polytope
        self.slice_lattice = slice_lattice
        self.crossed_edges = crossed_edges
        self.phi = phi

    def _key(self) -> tuple:
        return (
            self.base_polytope,
            self.base_lattice,
            self.plane,
            self.slice_polytope,
            self.slice_lattice,
            self.crossed_edges,
            self.phi,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    @cached_property
    def to_slice(self) -> dict[str, str]:
        base, sliced = self.base_lattice.face_of_mask, self.slice_lattice.face_of_mask
        return {base(b).id: sliced(s).id for b, s in self.phi.items()}

    @cached_property
    def to_base(self) -> dict[str, str]:
        return {slice_id: base_id for base_id, slice_id in self.to_slice.items()}

    def map_face(self, base_face_id: str) -> str:
        """Slice face id for a base face meeting the plane."""
        try:
            return self.to_slice[base_face_id]
        except KeyError:
            raise SectionError(
                f"face {base_face_id!r} does not meet the plane (or is unknown)"
            ) from None

    def lift(self, slice_face_id: str) -> str:
        """The unique base face whose section is the given slice face."""
        try:
            return self.to_base[slice_face_id]
        except KeyError:
            raise SectionError(f"unknown slice face id {slice_face_id!r}") from None


def section(p: VPolytope, lattice: FaceLattice, h: Hyperplane) -> SectionMap:
    """Slice p by h; requires h to miss every vertex and meet the interior."""
    if h.dim != p.ambient_dim:
        raise SectionError(
            f"hyperplane dimension {h.dim} does not match ambient {p.ambient_dim}"
        )
    sides = [h.side(v) for v in p.vertices]
    for i, s in enumerate(sides):
        if s == 0:
            raise SectionError(f"vertex {i} lies on the hyperplane")
    negative = mask_of(i for i, s in enumerate(sides) if s < 0)
    positive = lattice.full_face.mask & ~negative

    def is_cut(f: Face) -> bool:
        return bool(f.mask & negative and f.mask & positive)

    crossed = tuple(e for e in lattice.faces_of_dim(1) if is_cut(e))
    if not crossed:
        raise SectionError("hyperplane misses the polytope interior")
    slice_points = []
    for e in crossed:
        a, b = e.vertex_set
        slice_points.append(
            segment_hyperplane_intersection(p.vertices[a], p.vertices[b], h)
        )

    # Slice faces in bijection with the cut base faces, one dimension down;
    # the crossed edges inside a cut face are its slice face's vertices.
    phi: dict[int, int] = {}
    cut_faces = [f for f in lattice.faces if is_cut(f)]
    slice_faces = [Face(0, -1)]
    for f in cut_faces:
        cut_edges = mask_of(idx for idx, e in enumerate(crossed) if f.contains(e))
        if not cut_edges:
            raise SectionError(
                f"face {f.id!r} is cut but contains no crossed edge; "
                "base lattice is inconsistent"
            )
        phi[f.mask] = cut_edges
        slice_faces.append(Face(cut_edges, f.dim - 1))

    if len(set(phi.values())) != len(phi):
        raise SectionError("two cut faces produced the same slice face; degenerate cut")

    # A face containing a cut face is cut too, so the base covers among cut
    # faces are all of the slice's covers above its vertices.
    covers = [(0, 1 << i) for i in range(len(crossed))]
    for f in cut_faces:
        covers += [(phi[f.mask], phi[parent.mask]) for parent in lattice.parents(f)]

    slice_polytope = VPolytope.from_points(slice_points, validate=False)
    slice_lattice = FaceLattice(lattice.dim - 1, slice_faces, covers)
    return SectionMap(
        base_polytope=p,
        base_lattice=lattice,
        plane=h,
        slice_polytope=slice_polytope,
        slice_lattice=slice_lattice,
        crossed_edges=crossed,
        phi=phi,
    )
