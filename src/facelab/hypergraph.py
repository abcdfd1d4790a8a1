"""Face hypergraphs and strong vertex-connectivity certification.

The hypergraph at level k has the k-faces as nodes and the (k+1)-faces as
hyperedges.  Removing a node kills every hyperedge containing it; survivors
are adjacent when they share a surviving hyperedge.  Connectivity is certified
by exhaustive removal-set enumeration, which also yields witnesses and keeps
the nonstandard removal rule exact.  The polytope's automorphisms leave out
sets that one of them maps onto a scanned set.  The sets of every size form
one stream, and the exact check is bit-sliced: one pass over the hyperedges
decides a batch of up to `_LANES` of them, one per bit of an int.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterator, NamedTuple, Sequence

from .geometry import FacelabError
from .polytope import Face, FaceLattice, face_id, indices_of, mask_of

# The most removal sets one bit-sliced check takes at once.
_LANES = 4096


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


def _removal_sets(
    n_nodes: int, cap: int, representatives: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """The empty set, then by increasing size below `cap` (at most n_nodes)
    every set, in canonical order within its size, whose lowest member is
    its orbit's representative and whose other members lie in orbits with
    representatives no lower.  With every node its own representative that
    is every set."""
    yield ()
    for size in range(1, min(cap, n_nodes + 1)):
        for first in range(n_nodes):
            if representatives[first] != first:
                continue
            later = [i for i in range(first + 1, n_nodes) if representatives[i] >= first]
            for rest in combinations(later, size - 1):
                yield (first, *rest)


def _first_disconnected(
    n_nodes: int, members: Sequence[Sequence[int]], sets: Sequence[Sequence[int]]
) -> tuple[int, int] | None:
    """Index of the first set whose removal disconnects the hypergraph whose
    hyperedges have the given member lists, and the node mask of its lowest
    survivor's component; None if there is none.

    Bit-sliced: bit i of each int below is lane i, the removal of sets[i].
    Each lane's search starts at its lowest survivor, and a pass over the
    hyperedges lets each one that holds no removed node of a lane join its
    members' reached lanes.  Passes alternate direction until every lane has
    reached all its survivors or a pass reaches nothing new.  A lane is
    disconnected when some survivor is left unreached.  After a pass that
    reached nothing new, each lane's reached nodes are closed under its live
    hyperedges, so they are its component.
    """
    lanes = len(sets)
    full = (1 << lanes) - 1
    bitmaps = [bytearray((lanes + 7) >> 3) for _ in range(n_nodes)]
    for lane, nodes in enumerate(sets):
        byte, bit = lane >> 3, 1 << (lane & 7)
        for u in nodes:
            bitmaps[u][byte] |= bit
    removed = [int.from_bytes(bitmap, "little") for bitmap in bitmaps]
    reached = []
    unstarted = full  # the lanes that remove every node so far
    for gone in removed:
        reached.append(unstarted & ~gone)
        unstarted &= gone
    edges = []
    for nodes in members:
        dead = 0
        for u in nodes:
            dead |= removed[u]
        if dead != full:
            edges.append((nodes, full ^ dead))
    count = -1
    while True:
        for nodes, alive in edges:
            touch = 0
            for u in nodes:
                touch |= reached[u]
            touch &= alive
            for u in nodes:
                reached[u] |= touch
        unreached = 0
        for gone, got in zip(removed, reached):
            unreached |= full ^ (gone | got)
        if not unreached:
            return None
        grown = sum(map(int.bit_count, reached))
        if grown == count:
            lane = (unreached & -unreached).bit_length() - 1
            return lane, mask_of(u for u, got in enumerate(reached) if got >> lane & 1)
        count = grown
        edges.reverse()


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

    The sets go to `_first_disconnected` as one stream, in batches of 64
    lanes, each batch twice the last up to `_LANES`: an early witness costs
    one small batch, and a scan holds at most one batch.  A batch may span
    sizes; as the stream grows by size, the first disconnected lane of the
    first batch that has one is the first disconnecting set, and the check
    that finds it also gives its witness's component.
    """
    if cap < 1:
        raise HypergraphError("cap must be >= 1")
    n = hg.n_nodes
    members = [indices_of(m) for m in hg.edges]
    sets = _removal_sets(n, cap, hg.representatives or range(n))
    lanes = 64
    while batch := list(islice(sets, lanes)):
        if hit := _first_disconnected(n, members, batch):
            lane, first = hit
            removed = mask_of(batch[lane])
            rest = (1 << n) - 1 & ~removed & ~first
            parts = (tuple(hg.faces[i].id for i in indices_of(m)) for m in (removed, first, rest))
            witness = DisconnectionWitness(*parts)
            return ConnectivityReport(k=hg.k, alpha=len(batch[lane]), capped=False, witness=witness)
        lanes = min(2 * lanes, _LANES)
    return ConnectivityReport(k=hg.k, alpha=cap, capped=True, witness=None)
