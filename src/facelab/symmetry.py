"""Combinatorial automorphisms of a polytope, and their orbits on faces.

An automorphism is a vertex permutation that maps the set of facet vertex
masks onto itself: an automorphism of the vertex-facet incidence with its two
sides kept apart (Kaibel & Schwartz 2003).  It maps every face onto a face of
the same dimension, so it maps each face hypergraph H_k onto itself, and
disconnecting sets onto disconnecting sets.  The connectivity scan uses the
orbits to skip removal sets; only the commands that build hypergraphs load
this module.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .polytope import indices_of

Permutation = tuple[int, ...]


def _orbit(point: int, generators: Sequence[Permutation]) -> set[int]:
    orbit = {point}
    frontier = [point]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = g[p]
            if q not in orbit:
                orbit.add(q)
                frontier.append(q)
    return orbit


def automorphism_generators(n: int, facet_masks: Sequence[int]) -> tuple[Permutation, ...]:
    """Generators of the automorphism group, each as the tuple of vertex images.

    Vertices are told apart by signatures: the sorted counts of facets each
    shares with every vertex, then the count shared with each base point.
    Base points are fixed one at a time, each from the smallest class of
    equal signatures, until every class is a single vertex.  That is a
    pointwise-stabilizer chain.  From its deepest level up, each vertex x
    in the class of base point b, but not yet in b's orbit, gets a
    depth-first search for a permutation that fixes the earlier base points
    and maps b to x.  Deeper base points go to vertices of equal signature.
    Once the base is placed, each other vertex goes to the one vertex with
    its signature, and the result is kept only if it maps every facet onto
    a facet.  The search is exhaustive, so the generators found generate
    the whole group.

    Each vertex must be the only one on all of its facets, as in a
    polytope; then a base point's signature is unique once it is fixed.
    """
    facets = set(facet_masks)
    incidence = [0] * n
    for j, facet in enumerate(facet_masks):
        for v in indices_of(facet):
            incidence[v] |= 1 << j
    common = [[(a & b).bit_count() for b in incidence] for a in incidence]
    # signatures[i]: each vertex's signature while base[:i] is fixed.
    signatures = [[(tuple(sorted(row)),) for row in common]]
    base: list[int] = []
    while True:
        sizes = Counter(signatures[-1])
        unsplit = [v for v, s in enumerate(signatures[-1]) if sizes[s] > 1]
        if not unsplit:
            break
        b = min(unsplit, key=lambda v: sizes[signatures[-1][v]])
        base.append(b)
        signatures.append([s + (row[b],) for s, row in zip(signatures[-1], common)])
    classes = [Counter(level) for level in signatures]

    def extend(i: int, images: list[tuple]) -> Permutation | None:
        """A permutation placing base[i:] after the images of base[:i],
        which give the signatures `images`."""
        if Counter(images) != classes[i]:
            return None
        if i == len(base):
            where = {s: w for w, s in enumerate(images)}
            perm = tuple(where[s] for s in signatures[i])
            for facet in facet_masks:
                image = 0
                for v in indices_of(facet):
                    image |= 1 << perm[v]
                if image not in facets:
                    return None
            return perm
        wanted = signatures[i][base[i]]
        for x, s in enumerate(images):
            if s == wanted:
                found = extend(i + 1, [t + (row[x],) for t, row in zip(images, common)])
                if found is not None:
                    return found
        return None

    generators: list[Permutation] = []
    for i in reversed(range(len(base))):
        b = base[i]
        level = signatures[i]
        settled = _orbit(b, generators)
        for x in range(n):
            if x in settled or level[x] != level[b]:
                continue
            perm = extend(i + 1, [t + (row[x],) for t, row in zip(level, common)])
            if perm is None:
                settled |= _orbit(x, generators)
            else:
                generators.append(perm)
                settled |= _orbit(b, generators)
    return tuple(generators)


def orbit_representatives(
    generators: Sequence[Permutation], masks: Sequence[int]
) -> tuple[int, ...] | None:
    """For each mask, the lowest index in its orbit under the group.

    The masks must be closed under the generators, as the faces of one
    dimension are.  None when every orbit is a single mask.
    """
    index = {m: i for i, m in enumerate(masks)}
    moves = []  # each generator as a permutation of the mask indices
    for g in generators:
        bits = [1 << v for v in g]
        moves.append([index[sum(bits[v] for v in indices_of(m))] for m in masks])
    reps: list[int | None] = [None] * len(masks)
    # In index order, the first mask met in an orbit is its lowest.
    for i in range(len(masks)):
        if reps[i] is None:
            for j in _orbit(i, moves):
                reps[j] = i
    return None if reps == list(range(len(masks))) else tuple(reps)
