"""Face hypergraphs and strong vertex-connectivity certification.

The hypergraph at level k has the k-faces as nodes and the (k+1)-faces as
hyperedges.  Removing a node kills every hyperedge containing it; survivors
are adjacent when they share a surviving hyperedge.  Connectivity is certified
by exhaustive removal-set enumeration, which also yields witnesses and keeps
the nonstandard removal rule exact.
"""

from __future__ import annotations

import os
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .polytope import (
    FaceLattice,
    VPolytope,
    dual_face_map,
    face_lattice,
    indices_of,
    mask_of,
    polar_dual,
)


class HypergraphError(ValueError):
    """Invalid hypergraph request."""


class FaceHypergraph(NamedTuple):
    """Nodes are k-face ids in lattice order; each hyperedge is a (k+1)-face
    with its node set."""

    k: int
    nodes: tuple[str, ...]
    hyperedges: tuple[tuple[str, frozenset[str]], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


class DisconnectionWitness(NamedTuple):
    removed: tuple[str, ...]
    component_a: tuple[str, ...]
    component_b: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "removed": list(self.removed),
            "component_a": list(self.component_a),
            "component_b": list(self.component_b),
        }


class ConnectivityReport(NamedTuple):
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
    ids = {f.mask: f.id for f in lattice.faces_of_dim(k)}
    hyperedges = tuple(
        (e.id, frozenset(ids[c.mask] for c in lattice.children(e)))
        for e in lattice.faces_of_dim(k + 1)
    )
    return FaceHypergraph(k, tuple(ids.values()), hyperedges)


def _components(n_nodes: int, edge_masks: Sequence[int], removed: int) -> list[int]:
    """Node masks of the survivors' components, in order of their lowest node.

    A component grows from its lowest unseen node by absorbing every live
    hyperedge (one missing the removed nodes) that touches it, until a pass
    over the remaining hyperedges absorbs nothing new.  Passes alternate
    direction, so a chain of hyperedges is absorbed in one or two passes
    whichever way it runs.
    """
    live = [m for m in edge_masks if not m & removed]
    unseen = ((1 << n_nodes) - 1) & ~removed
    out = []
    while unseen:
        comp = unseen & -unseen
        grown = None
        while grown != comp:
            grown = comp
            rest = []
            for m in live:
                if m & comp:
                    comp |= m
                else:
                    rest.append(m)
            live = rest[::-1]
        out.append(comp)
        unseen &= ~comp
    return out


def _encode(hg: FaceHypergraph) -> tuple[dict[str, int], list[int]]:
    """Node indices by id, and each hyperedge as a mask over node indices."""
    index = {n: i for i, n in enumerate(hg.nodes)}
    edge_masks = [mask_of(index[n] for n in members) for _, members in hg.hyperedges]
    return index, edge_masks


def is_connected_after_removal(hg: FaceHypergraph, removed: Iterable[str]) -> bool:
    """Connectivity of survivors after deleting nodes and their hyperedges."""
    removed_ids = list(removed)
    index, edge_masks = _encode(hg)
    for r in removed_ids:
        if r not in index:
            raise HypergraphError(f"unknown node id {r!r}")
    removed_mask = mask_of(index[r] for r in removed_ids)
    return len(_components(hg.n_nodes, edge_masks, removed_mask)) <= 1


def _scan_chunk(
    n_nodes: int, edge_masks: list[int], subsets: Iterable[tuple[int, ...]]
) -> tuple[int, ...] | None:
    for subset in subsets:
        if len(_components(n_nodes, edge_masks, mask_of(subset))) > 1:
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
    n_nodes: int, edge_masks: list[int], size: int, workers: int
) -> tuple[int, ...] | None:
    subsets = combinations(range(n_nodes), size)
    if workers <= 1 or comb(n_nodes, size) < 64:
        # Lazily, so a sequential scan never holds the subset list.
        return _scan_chunk(n_nodes, edge_masks, subsets)
    # Imported here, not at module level: the pool brings multiprocessing,
    # pickle and socket, which every CLI process would otherwise load.
    from concurrent.futures import ProcessPoolExecutor

    chunks = _chunks(list(subsets), workers)
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        results = list(
            pool.map(_scan_chunk, [n_nodes] * len(chunks), [edge_masks] * len(chunks), chunks)
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
    _, edge_masks = _encode(hg)
    n = hg.n_nodes
    for size in range(0, min(cap, n + 1)):
        hit = _first_disconnecting_subset(n, edge_masks, size, workers)
        if hit is None:
            continue
        removed = mask_of(hit)
        first = _components(n, edge_masks, removed)[0]
        rest = ((1 << n) - 1) & ~removed & ~first

        def ids(mask: int) -> tuple[str, ...]:
            return tuple(hg.nodes[i] for i in indices_of(mask))

        return ConnectivityReport(
            k=hg.k,
            alpha=size,
            capped=False,
            witness=DisconnectionWitness(ids(removed), ids(first), ids(rest)),
        )
    return ConnectivityReport(k=hg.k, alpha=cap, capped=True, witness=None)


def find_isolating_set(hg: FaceHypergraph, node: str) -> tuple[str, ...] | None:
    """Greedy picks, one per hyperedge containing the node, that isolate it.

    Each hyperedge through the node not yet hit contributes its first other
    node.  Returns the picked set when removing it leaves the node with no
    surviving incident hyperedge while at least one other node survives;
    None otherwise.
    """
    index, edge_masks = _encode(hg)
    if node not in index:
        raise HypergraphError(f"unknown node id {node!r}")
    bit = 1 << index[node]
    picks = 0
    for m in edge_masks:
        others = m & ~bit
        if m & bit and others and not picks & others:
            picks |= others & -others
    if not picks or picks.bit_count() >= hg.n_nodes - 1:
        return None
    if any(m & bit and m != bit and not m & picks for m in edge_masks):
        return None
    return tuple(hg.nodes[i] for i in indices_of(picks))


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
    if dual_data is None:
        dual, facet_faces = polar_dual(p)
        dual_lattice = face_lattice(dual)
    else:
        facet_faces, dual_lattice = dual_data
    delta = dual_face_map(facet_faces)

    def image_of(dim: int) -> dict[int, int] | None:
        images = {f.mask: mask_of(delta(f)) for f in lattice.faces_of_dim(dim)}
        if len(set(images.values())) != len(images):
            return None
        return images

    node_images = image_of(k)
    edge_images = image_of(k + 1)
    if node_images is None or edge_images is None:
        return False
    skeleton_max = {f.mask for f in dual_lattice.faces_of_dim(d - k - 1)}
    skeleton_ridges = {f.mask for f in dual_lattice.faces_of_dim(d - k - 2)}
    if set(node_images.values()) != skeleton_max:
        return False
    if set(edge_images.values()) != skeleton_ridges:
        return False
    # H_k's hyperedge e holds exactly the k-faces that e covers.
    for e in lattice.faces_of_dim(k + 1):
        members = {c.mask for c in lattice.children(e)}
        e_img = edge_images[e.mask]
        for n, n_img in node_images.items():
            if (n in members) != (e_img & ~n_img == 0):
                return False
    return True
