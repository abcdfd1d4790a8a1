"""Hyperplane sections of a polytope and the induced face-poset bijection.

Slicing a polytope by a hyperplane missing all vertices yields a polytope one
dimension down whose faces correspond exactly to the faces of the base that the
hyperplane cuts.  Crossed edges become slice vertices, and the slice's covers
are the images of the covers between cut faces, so the slice polytope comes
with its lattice, the base lattice restricted to the cut faces, and the
bijection is available by construction and stays exact under recursion.  Its
facets are the images of the cut facets, and it keeps their rows.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .geometry import (
    FacelabError,
    GeometryError,
    Hyperplane,
    Rational,
    parse_rational,
    primitive,
    quote,
)
from .polytope import Face, FaceLattice, VPolytope, mask_of


class SectionError(FacelabError):
    """Degenerate or invalid section request."""


def parse_hyperplane(text: str) -> tuple[list[Rational], Rational]:
    """Parse 'a1,a2,...,ad;c' into the normal and offset of a plane, as
    reduced integer pairs."""
    parts = text.split(";")
    if len(parts) != 2:
        raise SectionError(
            f"malformed hyperplane {quote(text)}: expected 'a1,...,ad;c'"
        )
    try:
        normal = [parse_rational(t) for t in parts[0].split(",")]
        offset = parse_rational(parts[1])
        if not any(a.numerator for a in normal):
            raise GeometryError("hyperplane normal must be nonzero")
    except GeometryError as exc:
        raise SectionError(f"malformed hyperplane {quote(text)}: {exc}") from None
    return normal, offset


class SectionMap(NamedTuple):
    """A sliced polytope, which carries its lattice, plus the face bijection
    with its base.

    Slice vertex i is the crossing point of the i-th crossed edge in lattice
    order; slice faces keep ambient coordinates (they live on the plane),
    with the slice's intrinsic dimension one below the base's.  ``phi`` maps
    the mask of each cut base face to the mask of its slice face (a mask
    over crossed edges), and is injective: a cut face's slice has its
    relative interior inside the face's, so distinct faces give distinct
    slices.
    """

    slice_polytope: VPolytope
    phi: dict[int, int]

    @property
    def slice_lattice(self) -> FaceLattice:
        """The slice's lattice, under the name `perfbench/trace_entry.py` reads."""
        return self.slice_polytope.lattice


def section(p: VPolytope, h: Hyperplane) -> SectionMap:
    """Slice p by h; requires h to miss every vertex and meet the interior."""
    if h.dim != p.ambient_dim:
        raise SectionError(
            f"hyperplane dimension {h.dim} does not match ambient {p.ambient_dim}"
        )
    lattice = p.lattice
    values = p.plane_values(h)
    for i, value in enumerate(values):
        if value == 0:
            raise SectionError(f"vertex {i} lies on the hyperplane")
    negative = mask_of(i for i, value in enumerate(values) if value < 0)
    positive = lattice.full_face.mask & ~negative

    def is_cut(f: Face) -> bool:
        return bool(f.mask & negative and f.mask & positive)

    crossed = tuple(e for e in lattice.faces_of_dim(1) if is_cut(e))
    if not crossed:
        raise SectionError("hyperplane misses the polytope interior")
    # Edge [P, Q] of vertex rows crosses h at X = (h.Q) P - (h.P) Q, made
    # primitive; its x0 has the sign of h.Q, so Q is taken on the positive side.
    rows = p.rows
    slice_rows = []
    for e in crossed:
        a, b = e.vertex_set
        if values[b] < 0:
            a, b = b, a
        slice_rows.append(
            primitive([values[b] * x - values[a] * y for x, y in zip(rows[a], rows[b])])
        )
    slice_polytope = VPolytope(tuple(slice_rows))

    # Cut base faces map to slice faces one dimension down.  Crossed edge
    # idx is slice vertex idx; the slice face of a larger cut face holds the
    # crossed edges of its cut children, which come before it in lattice
    # order and so are in phi, and covers exactly their images.
    phi = {e.mask: 1 << idx for idx, e in enumerate(crossed)}
    below: dict[int, list[int]] = {}
    for f in lattice.faces:
        if f.dim > 1 and is_cut(f):
            cut = [phi[c.mask] for c in lattice.children(f) if c.mask in phi]
            phi[f.mask] = image = reduce(or_, cut)
            below[image] = cut
    dim = lattice.dim - 1
    # A cut facet's row is zero on a crossing point exactly when the crossed
    # edge lies in the facet, so it is the row of the facet's image.
    slice_polytope.__dict__.update(
        dim=dim,
        lattice=FaceLattice(dim, len(crossed), below.__getitem__),
        facet_rows={phi[mask]: row for mask, row in p.facet_rows.items() if mask in phi},
    )
    return SectionMap(slice_polytope, phi)
