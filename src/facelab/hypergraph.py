"""Face hypergraphs and strong vertex-connectivity certification.

The hypergraph at level k has the k-faces as nodes and the (k+1)-faces as
hyperedges.  Removing a node kills every hyperedge containing it; survivors
are adjacent when they share a surviving hyperedge.  Connectivity is certified
by exhaustive removal-set enumeration, which also yields witnesses and keeps
the nonstandard removal rule exact; per-node detours (see
`strong_connectivity`) accept most sets without a component search, and the
polytope's automorphisms leave out sets that one of them maps onto a
scanned set.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .geometry import FacelabError
from .polytope import Face, FaceLattice, face_id, indices_of, mask_of


class HypergraphError(FacelabError):
    """Invalid hypergraph request."""


class FaceHypergraph(NamedTuple):
    """Nodes are the k-faces in lattice order; each hyperedge, one per
    (k+1)-face in lattice order, is the mask of its members' node indices.
    `representatives` gives, per node index, the lowest node index in its
    orbit under a group of automorphisms of H; None means every node is its
    own.  `nodes` and `hyperedges` are id views, derived on each read."""

    k: int
    faces: tuple[Face, ...]
    edges: tuple[int, ...]
    representatives: tuple[int, ...] | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.faces)

    @property
    def nodes(self) -> tuple[str, ...]:
        """The node ids, in node order."""
        return tuple(f.id for f in self.faces)

    def edge_id(self, edge: int) -> str:
        """The id of a hyperedge's (k+1)-face, the union of its members:
        every vertex of a face of dimension >= 1 lies on one of its facets."""
        mask = 0
        for i in indices_of(edge):
            mask |= self.faces[i].mask
        return face_id(mask)

    @property
    def hyperedges(self) -> tuple[tuple[str, frozenset[str]], ...]:
        """Each hyperedge as its id and the ids of its members."""
        nodes = self.nodes
        return tuple(
            (self.edge_id(edge), frozenset(nodes[i] for i in indices_of(edge)))
            for edge in self.edges
        )


class DisconnectionWitness(NamedTuple):
    removed: tuple[str, ...]
    component_a: tuple[str, ...]
    component_b: tuple[str, ...]


class ConnectivityReport(NamedTuple):
    k: int
    alpha: int
    capped: bool
    witness: DisconnectionWitness | None

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "witness": self.witness and self.witness._asdict()}


def build_hypergraph(lattice: FaceLattice, k: int) -> FaceHypergraph:
    """H_k of the lattice; at k = d-1 the single hyperedge is the full face.

    Each hyperedge is the mask of its (k+1)-face's children's node indices,
    and the orbit representatives come from the polytope's automorphisms.
    """
    from .symmetry import orbit_representatives

    if k < 0 or k > lattice.dim - 1:
        raise HypergraphError(f"k={k} out of range [0, {lattice.dim - 1}]")
    faces = lattice.faces_of_dim(k)
    index = {f.mask: i for i, f in enumerate(faces)}
    edges = tuple(
        mask_of(index[c.mask] for c in lattice.children(e))
        for e in lattice.faces_of_dim(k + 1)
    )
    representatives = orbit_representatives(lattice.automorphisms, list(index))
    return FaceHypergraph(k, tuple(faces), edges, representatives)


def _first_component(n_nodes: int, edge_masks: Sequence[int], removed: int) -> int:
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


def _detour(edge_masks: Sequence[int], y: int) -> int | None:
    """Footprint of a hyperedge tree joining y's neighbours in H - y.

    The neighbours are the other nodes of y's hyperedges.  A breadth-first
    search over the hyperedges missing y starts at the lowest neighbour and
    runs until it has reached them all; the hyperedges on the search-tree
    paths back from the neighbours form the tree.  Returns the neighbours
    plus every node of those hyperedges (never y itself), or None when the
    neighbours are not all joined, that is, when removing y disconnects a
    connected hypergraph.
    """
    bit = 1 << y
    near = 0
    live = []
    for m in edge_masks:
        if m & bit:
            near |= m
        else:
            live.append(m)
    near &= ~bit
    start = reached = frontier = near & -near
    via: dict[int, tuple[int, int]] = {}  # node bit -> (hyperedge, parent bit)
    missing = near & ~start
    while missing:
        if not frontier:
            return None
        layer = 0
        rest = []
        for m in live:
            touch = m & frontier
            if not touch:
                rest.append(m)
                continue
            fresh = m & ~reached
            if not fresh:
                continue
            reached |= fresh
            layer |= fresh
            entry = (m, touch & -touch)
            missing &= ~fresh
            while fresh:
                low = fresh & -fresh
                via[low] = entry
                fresh ^= low
            if not missing:
                break
        frontier = layer
        live = rest
    footprint = near
    traced = start
    pending = near & ~start
    while pending:
        node = pending & -pending
        pending ^= node
        while not node & traced:
            traced |= node
            m, node = via[node]
            footprint |= m
    return footprint


def _first_disconnecting_subset(
    n_nodes: int,
    edge_masks: Sequence[int],
    detours: list[int],
    size: int,
    representatives: Sequence[int],
) -> tuple[int, int] | None:
    """The first disconnecting set of `size` nodes, in canonical order, among
    those whose lowest member is its orbit's representative and whose other
    members lie in orbits with representatives no lower, as its mask and the
    mask of the lowest survivor's component; None if there is none.  With
    every node its own representative that is every set.

    A nonempty set is accepted unsearched when some member y has `removed &
    detours[y] == 0`: its detour misses every other removed node (see
    `strong_connectivity`).  Only the other sets get the exact check.
    """
    full = (1 << n_nodes) - 1
    if size == 0:
        component = _first_component(n_nodes, edge_masks, 0)
        return None if component == full else (0, component)
    bits = [1 << i for i in range(n_nodes)]
    for first in range(n_nodes):
        if representatives[first] != first:
            continue
        head = bits[first]
        head_detour = detours[first]
        later = [i for i in range(first + 1, n_nodes) if representatives[i] >= first]
        for rest in combinations(later, size - 1):
            removed = head
            for i in rest:
                removed |= bits[i]
            if not removed & head_detour:
                continue
            for i in rest:
                if not removed & detours[i]:
                    break
            else:
                component = _first_component(n_nodes, edge_masks, removed)
                if component != full & ~removed:
                    return removed, component
    return None


def strong_connectivity(hg: FaceHypergraph, cap: int) -> ConnectivityReport:
    """Exhaustively certify connectivity under all removals of size < cap.

    Scans removal sets in canonical order by increasing size.  The first
    disconnecting set found fixes alpha = its size; if none exists below cap,
    alpha = cap with the capped flag set (nothing larger was examined).

    Sets are scanned up to the group behind `hg.representatives`: only those
    whose lowest member r is its orbit's representative and whose other
    members lie in orbits with representatives >= r.  No answer changes.
    Take a disconnecting set S and its member x whose orbit has the lowest
    representative r.  An automorphism maps x onto r and S onto a
    disconnecting set of the same size, in which r is the lowest member
    (every member's index is at least its representative, and that is at
    least r), so the scan holds that image.  If S is the first
    disconnecting set of its size in canonical order, that image cannot
    come before it, so r is also S's lowest member and S meets the rule
    itself.  So alpha, `capped` and the witness are those of the scan of
    every set, and a group with missing generators only slows the scan.

    From size 2 on, detours accept most sets without a search.  When every
    smaller removal leaves H connected and y is in S, each component of
    H - S holds a neighbour of y: the last node before y on a shortest path
    in H - (S - y).  So if the detour of y (a hyperedge tree joining y's
    neighbours without y) meets no other node of S, H - S is connected.
    A set that no member's detour accepts gets the exact check.
    """
    if cap < 1:
        raise HypergraphError("cap must be >= 1")
    n = hg.n_nodes
    # A detour never holds its own node, so the full mask accepts nothing:
    # it stands in while the lemma does not apply yet, and for a node with
    # no detour (None; an empty one cannot occur once H is connected).
    full = (1 << n) - 1
    detours = [full] * n
    representatives = hg.representatives or range(n)
    for size in range(0, min(cap, n + 1)):
        if size == 2:
            detours = [_detour(hg.edges, y) or full for y in range(n)]
        hit = _first_disconnecting_subset(n, hg.edges, detours, size, representatives)
        if hit is None:
            continue
        removed, first = hit
        rest = full & ~removed & ~first
        parts = (tuple(hg.faces[i].id for i in indices_of(m)) for m in (removed, first, rest))
        witness = DisconnectionWitness(*parts)
        return ConnectivityReport(k=hg.k, alpha=size, capped=False, witness=witness)
    return ConnectivityReport(k=hg.k, alpha=cap, capped=True, witness=None)
