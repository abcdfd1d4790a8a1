"""Face hypergraphs and strong vertex-connectivity certification.

The hypergraph at level k has the k-faces as nodes and the (k+1)-faces as
hyperedges.  Removing a node kills every hyperedge containing it; survivors
are adjacent when they share a surviving hyperedge.  Connectivity is certified
by exhaustive removal-set enumeration, which also yields witnesses and keeps
the nonstandard removal rule exact.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .polytope import (
    FaceLattice,
    VPolytope,
    dual_face_map,
    face_lattice,
    parse_face_id,
    polar_dual,
)


class HypergraphError(ValueError):
    """Invalid hypergraph request."""


@dataclass(frozen=True)
class FaceHypergraph:
    """Nodes are k-face ids; each hyperedge is a (k+1)-face with its node set."""

    k: int
    nodes: tuple[str, ...]
    hyperedges: tuple[tuple[str, frozenset[str]], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class DisconnectionWitness:
    removed: tuple[str, ...]
    component_a: tuple[str, ...]
    component_b: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "removed": list(self.removed),
            "component_a": list(self.component_a),
            "component_b": list(self.component_b),
        }


@dataclass(frozen=True)
class ConnectivityReport:
    k: int
    alpha: int
    capped: bool
    witness: DisconnectionWitness | None

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "alpha": self.alpha,
            "capped": self.capped,
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


def build_hypergraph(lattice: FaceLattice, k: int) -> FaceHypergraph:
    """H_k of the lattice; at k = d-1 the single hyperedge is the full face."""
    if k < 0 or k > lattice.dim - 1:
        raise HypergraphError(f"k={k} out of range [0, {lattice.dim - 1}]")
    nodes = tuple(f.id for f in lattice.faces_of_dim(k))
    hyperedges = tuple(
        (e.id, frozenset(c.id for c in lattice.children(e)))
        for e in lattice.faces_of_dim(k + 1)
    )
    return FaceHypergraph(k, nodes, hyperedges)


def _survivors_connected(
    n_nodes: int, edge_members: Sequence[frozenset[int]], removed: frozenset[int]
) -> bool:
    survivors = [i for i in range(n_nodes) if i not in removed]
    if len(survivors) <= 1:
        return True
    live_edges = [m for m in edge_members if not (m & removed)]
    incident: dict[int, list[int]] = {i: [] for i in survivors}
    for idx, members in enumerate(live_edges):
        for node in members:
            incident[node].append(idx)
    seen_nodes = {survivors[0]}
    seen_edges: set[int] = set()
    stack = [survivors[0]]
    while stack:
        node = stack.pop()
        for idx in incident[node]:
            if idx in seen_edges:
                continue
            seen_edges.add(idx)
            for other in live_edges[idx]:
                if other not in seen_nodes:
                    seen_nodes.add(other)
                    stack.append(other)
    return len(seen_nodes) == len(survivors)


def _components(
    n_nodes: int, edge_members: Sequence[frozenset[int]], removed: frozenset[int]
) -> list[list[int]]:
    survivors = [i for i in range(n_nodes) if i not in removed]
    live_edges = [m for m in edge_members if not (m & removed)]
    incident: dict[int, list[int]] = {i: [] for i in survivors}
    for idx, members in enumerate(live_edges):
        for node in members:
            incident[node].append(idx)
    out = []
    unseen = set(survivors)
    for start in survivors:
        if start not in unseen:
            continue
        comp = {start}
        unseen.discard(start)
        stack = [start]
        while stack:
            node = stack.pop()
            for idx in incident[node]:
                for other in live_edges[idx]:
                    if other in unseen:
                        unseen.discard(other)
                        comp.add(other)
                        stack.append(other)
        out.append(sorted(comp))
    return out


def _encode(hg: FaceHypergraph) -> tuple[dict[str, int], list[frozenset[int]]]:
    index = {n: i for i, n in enumerate(hg.nodes)}
    edge_members = [
        frozenset(index[n] for n in members) for _, members in hg.hyperedges
    ]
    return index, edge_members


def is_connected_after_removal(hg: FaceHypergraph, removed: Iterable[str]) -> bool:
    """Connectivity of survivors after deleting nodes and their hyperedges."""
    removed_ids = list(removed)
    index, edge_members = _encode(hg)
    for r in removed_ids:
        if r not in index:
            raise HypergraphError(f"unknown node id {r!r}")
    removed_set = frozenset(index[r] for r in removed_ids)
    return _survivors_connected(hg.n_nodes, edge_members, removed_set)


def _scan_chunk(
    n_nodes: int,
    edge_members: list[frozenset[int]],
    subsets: list[tuple[int, ...]],
) -> tuple[int, ...] | None:
    for subset in subsets:
        if not _survivors_connected(n_nodes, edge_members, frozenset(subset)):
            return subset
    return None


def default_workers() -> int:
    """Worker count from FACELAB_THREADS, capped at the CPU count; 1 when unset or bad."""
    raw = os.environ.get("FACELAB_THREADS", "1")
    try:
        requested = max(1, int(raw))
    except ValueError:
        return 1
    return min(requested, os.cpu_count() or 1)


def _chunks(subsets: list, workers: int) -> list[list]:
    """Contiguous slices of subsets, at most one per worker."""
    step = (len(subsets) + workers - 1) // workers
    return [subsets[i : i + step] for i in range(0, len(subsets), step)]


def _first_disconnecting_subset(
    n_nodes: int,
    edge_members: list[frozenset[int]],
    size: int,
    workers: int,
) -> tuple[int, ...] | None:
    subsets = list(combinations(range(n_nodes), size))
    if workers <= 1 or len(subsets) < 64:
        return _scan_chunk(n_nodes, edge_members, subsets)
    chunks = _chunks(subsets, workers)
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        results = list(
            pool.map(_scan_chunk, [n_nodes] * len(chunks), [edge_members] * len(chunks), chunks)
        )
    # Chunks are contiguous slices in canonical order, so the first hit
    # across them is the globally first witness.
    for hit in results:
        if hit is not None:
            return hit
    return None


def strong_connectivity(
    hg: FaceHypergraph, cap: int, workers: int | None = None
) -> ConnectivityReport:
    """Exhaustively certify connectivity under all removals of size < cap.

    Scans removal sets in canonical order by increasing size.  The first
    disconnecting set found fixes alpha = its size; if none exists below cap,
    alpha = cap with the capped flag set (nothing larger was examined).
    At most os.cpu_count() worker processes run, whatever `workers` asks for.
    """
    if cap < 1:
        raise HypergraphError("cap must be >= 1")
    if workers is None:
        workers = default_workers()
    workers = min(workers, os.cpu_count() or 1)
    _, edge_members = _encode(hg)
    n = hg.n_nodes
    for size in range(0, min(cap, n + 1)):
        hit = _first_disconnecting_subset(n, edge_members, size, workers)
        if hit is None:
            continue
        removed = frozenset(hit)
        comps = _components(n, edge_members, removed)
        first = min(comps, key=lambda c: c[0])
        rest = sorted(i for comp in comps for i in comp if i not in set(first))
        return ConnectivityReport(
            k=hg.k,
            alpha=size,
            capped=False,
            witness=DisconnectionWitness(
                removed=tuple(hg.nodes[i] for i in hit),
                component_a=tuple(hg.nodes[i] for i in first),
                component_b=tuple(hg.nodes[i] for i in rest),
            ),
        )
    return ConnectivityReport(k=hg.k, alpha=cap, capped=True, witness=None)


def find_isolating_set(hg: FaceHypergraph, node: str) -> tuple[str, ...] | None:
    """Greedy picks, one per hyperedge containing the node, that isolate it.

    Returns the picked set when removing it leaves the node with no surviving
    incident hyperedge while at least one other node survives; None otherwise.
    """
    if node not in hg.nodes:
        raise HypergraphError(f"unknown node id {node!r}")
    picks: set[str] = set()
    for _, members in hg.hyperedges:
        if node not in members:
            continue
        others = members - {node}
        if not others:
            continue
        if picks & others:
            continue
        picks.add(min(others, key=parse_face_id))
    if not picks:
        return None
    if len(picks) >= hg.n_nodes - 1:
        return None
    for _, members in hg.hyperedges:
        if node in members and len(members) > 1 and not (picks & members):
            return None
    return tuple(sorted(picks, key=parse_face_id))


def check_duality_equivalence(
    p: VPolytope,
    k: int,
    lattice: FaceLattice | None = None,
    dual_data: tuple | None = None,
) -> bool:
    """Does H_k of p match the ridge structure of the dual's (d-k-1)-skeleton?

    The duality map sends a face to the set of facets containing it.  The
    check requires it to biject k-faces onto the dual's (d-k-1)-faces and
    (k+1)-faces onto (d-k-2)-faces, reversing containment.

    Callers sweeping k may pass a precomputed lattice and
    dual_data=(facet_faces, dual_lattice) to avoid rebuilding both sides.
    """
    if lattice is None:
        lattice = face_lattice(p)
    d = lattice.dim
    if k < 0 or k > d - 1:
        raise HypergraphError(f"k={k} out of range [0, {d - 1}]")
    hg = build_hypergraph(lattice, k)
    if dual_data is None:
        dual, facet_faces = polar_dual(p)
        dual_lattice = face_lattice(dual)
    else:
        facet_faces, dual_lattice = dual_data
    delta = dual_face_map(facet_faces)

    def image_of(dim: int) -> dict[str, tuple[int, ...]] | None:
        images = {}
        for f in lattice.faces_of_dim(dim):
            images[f.id] = delta(f)
        if len(set(images.values())) != len(images):
            return None
        return images

    node_images = image_of(k)
    edge_images = image_of(k + 1)
    if node_images is None or edge_images is None:
        return False
    skeleton_max = {f.vertex_set for f in dual_lattice.faces_of_dim(d - k - 1)}
    skeleton_ridges = {f.vertex_set for f in dual_lattice.faces_of_dim(d - k - 2)}
    if set(node_images.values()) != skeleton_max:
        return False
    if set(edge_images.values()) != skeleton_ridges:
        return False
    for eid, members in hg.hyperedges:
        e_img = set(edge_images[eid])
        for n in hg.nodes:
            forward = n in members
            reversed_containment = e_img <= set(node_images[n])
            if forward != reversed_containment:
                return False
    return True
