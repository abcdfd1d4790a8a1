"""Ridge paths between k-faces that avoid a blocked set of k-faces.

The solver realizes an inductive construction: pick a blocked face R, find a
hyperplane through relative-interior points of the endpoints that misses R and
every vertex, slice, solve the smaller problem in the slice, and lift the
answer back.  Each level reads the lattice of the polytope it is given, a
slice's included.  Each recursion level drops both k and the number of blocked
faces by one, so a blocked set of size at most k always bottoms out in a plain
graph search.  A standalone verifier re-checks any claimed path against the
lattice alone.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .geometry import CheckedRecord, FacelabError, Hyperplane, dot, interior_point, quote
from .polytope import Face, FaceLattice, PolytopeError, VPolytope, face_id
from .section import section


class RidgePathError(FacelabError):
    """Unsolvable request, malformed inputs, or no cutting hyperplane found."""


class _BlockedSetFields(NamedTuple):
    k: int
    face_ids: frozenset[str]


class BlockedSet(CheckedRecord, _BlockedSetFields):
    """A request's record of k and of the budget: the k-faces a path must
    avoid, at most k of them."""

    __slots__ = ()

    def __new__(cls, k: int, face_ids: frozenset[str]) -> BlockedSet:
        if k < 0:
            raise RidgePathError(f"k={k} out of range: k must be at least 0")
        if len(face_ids) > k:
            raise RidgePathError(
                f"blocked set of size {len(face_ids)} exceeds the budget k={k}"
            )
        return super().__new__(cls, k, face_ids)

    @classmethod
    def of(cls, k: int, ids: Iterable[str]) -> BlockedSet:
        """The blocked set of the listed ids; an id listed twice is refused."""
        ids = list(ids)
        b = cls(k, frozenset(ids))
        if len(b.face_ids) < len(ids):
            repeated = next(x for i, x in enumerate(ids) if ids.index(x) < i)
            raise RidgePathError(f"blocked face {quote(repeated)} is listed twice")
        return b


class RidgePath(NamedTuple):
    """Face ids G_1..G_l plus the (k-1)-face ids where neighbors meet."""

    faces: tuple[str, ...]
    ridges: tuple[str, ...]


class RidgePathResult(NamedTuple):
    path: RidgePath
    hyperplanes: tuple[Hyperplane, ...]

    @property
    def depth(self) -> int:
        """The recursion depth: one level per cutting hyperplane."""
        return len(self.hyperplanes)


def _difference(v: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
    """The direction v - b between points given as homogeneous rows, as an
    integer vector and its positive denominator."""
    return [b[0] * x - v[0] * y for x, y in zip(v[1:], b[1:])], v[0] * b[0]


def _closed_form_normal(
    p: VPolytope, r: Face, bf: Sequence[int], bg: Sequence[int]
) -> list[int] | None:
    """The normal N, D entries, of a plane through bf and bg with every
    vertex of r strictly on one side, from at most two facet rows; None only
    for a bug.  X' is a row X without its e0 entry.

    C, the sum of the rows of the facets holding r, is negative off r and
    zero on it.  When the line through bf and bg is parallel to C.x = 0,
    N = C'.  Otherwise it meets that plane at q = (C.bg) bf - (C.bf) bg,
    outside the polytope, so some facet row A has A.q q0 > 0; A is the first
    in lattice order, and N = alpha C' + q0 A' with
    alpha = (A.bf) bg0 - bf0 (A.bg).  That is the full row alpha C + q0 A +
    gamma e0, the cross product of (C.bf, A.bf, bf0) and (C.bg, A.bg, bg0),
    which vanishes at bf and bg, less its e0 entry gamma.
    """
    rows = p.facet_rows
    c = [sum(column) for column in zip(*(row for on, row in rows.items() if r.mask & ~on == 0))]
    cf, cg = dot(c, bf), dot(c, bg)
    q0 = cg * bf[0] - cf * bg[0]
    if q0 == 0:
        return c[1:]
    q = [cg * x - cf * y for x, y in zip(bf, bg)]
    facets = p.lattice.faces_of_dim(p.dim - 1)
    a = next((rows[x.mask] for x in facets if dot(rows[x.mask], q) * q0 > 0), None)
    if a is None:
        return None
    alpha = dot(a, bf) * bg[0] - bf[0] * dot(a, bg)
    return [alpha * x + q0 * y for x, y in zip(c[1:], a[1:])]


def _clear_grazed_vertices(
    w: tuple[list[int], int], diffs: list[tuple[list[int], int]], a: list[int]
) -> tuple[list[int] | None, int]:
    """Nudge a within the w-orthogonal space until no vertex lies on the plane.

    The directions are the moment curve u0(s) = (1, s, ..., s^(D-1)), D the
    ambient dimension, projected onto w's orthogonal space, for s = 1, 2, ...;
    the first s with u.(v - b) != 0 at every vertex v on the plane is taken.
    u.(v - b) = u0(s).P(v - b), P that projection, is a polynomial in s of
    degree below D.  It is not the zero polynomial, because no vertex lies on
    the line through the two interior points: with v on it, one point would
    lie inside a segment from v to the other, and the least face holding
    that point, its own face, would hold the segment, so the other point and
    its face; two distinct k-faces cannot nest.  So it vanishes at fewer
    than D values of s, and with m offending vertices some s <= m (D - 1) + 1
    clears them all.

    The nudge is a + t u, and t the least |a.(v - b)| / (2 (|u.(v - b)| + 1))
    over the vertices v off the plane.  That step is strictly below every
    sign-flip threshold, so all existing strict side assignments survive the
    nudge exactly.  The +1 makes t depend on the exact scale of u and of each
    v - b, so both are carried over their denominators; a's scale is free, as
    t scales with it.  With u = U / z and v - b = E / e the nudged normal is a
    positive multiple of a + (num / den) U, num / den the least
    |a.E| / (2 (|U.E| + z e)).  Returns the nudged normal (None only past the
    bound, which a correct caller never reaches) and the number of directions
    tried.
    """
    values = [dot(a, diff) for diff, _ in diffs]
    if all(values):
        return a, 0
    offenders = [i for i, val in enumerate(values) if val == 0]
    w_vec, w_den = w
    ww, z = dot(w_vec, w_vec), w_den * w_den
    bound = len(offenders) * (len(a) - 1) + 1
    for s in range(1, bound + 1):
        u0 = [s**i for i in range(len(a))]
        # u = (w.w) u0 - (u0.w) w, which is U / w_den**2.
        uw = dot(u0, w_vec)
        u = [ww * c - uw * wc for c, wc in zip(u0, w_vec)]
        pair = [dot(u, diff) for diff, _ in diffs]
        if any(pair[i] == 0 for i in offenders):
            continue
        num, den = 0, 0
        for val, q, (_, e) in zip(values, pair, diffs):
            if val:
                n, m = abs(val), 2 * (abs(q) + z * e)
                if den == 0 or n * den < num * m:
                    num, den = n, m
        return [den * c + num * x for c, x in zip(a, u)], s
    return None, bound


def search_cutting_hyperplane(
    p: VPolytope,
    f: Face,
    g: Face,
    r: Face,
) -> tuple[Hyperplane, int]:
    """A hyperplane through interior points of f and g, missing r and all vertices.

    The points are `interior_point` of each face's rows, each in its face's
    relative interior.  `_closed_form_normal` combines at most two facet
    rows into a plane through both that puts every vertex of r strictly on
    one side; if it still grazes other vertices, a nudge along moment-curve
    directions orthogonal to the line through the points moves it off them
    without flipping any strict side.  Exact sign tests confirm the result.
    Returns the plane and the number of candidates tried: the closed form
    plus each nudge direction, at most 2 + m (D - 1) with m the grazed
    vertices and D the ambient dimension.
    """
    k = f.dim
    if len({f, g, r}) != 3:
        raise RidgePathError("f, g, r must be three distinct faces")
    if not (g.dim == k and r.dim == k):
        raise RidgePathError("f, g, r must share one dimension")
    d = p.dim
    if not (1 <= k <= d - 1):
        raise RidgePathError(f"face dimension {k} out of range [1, {d - 1}]")
    bf, bg = (interior_point([p.rows[i] for i in x.vertex_set]) for x in (f, g))
    w = _difference(bg, bf)
    diffs = [_difference(v, bf) for v in p.rows]
    attempts = 1
    a = _closed_form_normal(p, r, bf, bg)
    if a is not None:
        a, tried = _clear_grazed_vertices(w, diffs, a)
        attempts += tried
    if a is not None:
        # The plane a.x = a.b through b = bf[1:] / bf[0].
        h = Hyperplane([-dot(a, bf[1:]), *(bf[0] * c for c in a)])
        values = p.plane_values(h)
        if all(values) and len({values[i] > 0 for i in r.vertex_set}) == 1:
            return h, attempts
    # The closed form always applies.  The line through the two interior
    # points meets P only in the segment between them, and a face holding
    # any point of it contains f or g, which r, another k-face, cannot; so
    # C.bf, C.bg < 0, q lies outside P and some row A exists, and
    # beta = q0 != 0 keeps r off the plane.
    raise RidgePathError(
        f"no cutting hyperplane found for f={f.id}, g={g.id}, r={r.id}; "
        "one always exists, so this is a bug"
    )


def _ridge_ok(ridge: Face, blocked: Sequence[Face]) -> bool:
    return not any(ridge.mask & ~b.mask == 0 for b in blocked)


def _bfs_ridge_path(
    lattice: FaceLattice, blocked: Sequence[Face], f: Face, g: Face
) -> tuple[Face, ...] | None:
    """Breadth-first search on the pruned ridge graph of k-faces.

    Nodes are k-faces outside the blocked set; two are adjacent when their
    lattice meet has dimension k-1 and lies inside no blocked face.  So a
    face's neighbours are the other parents of its children that pass
    `_ridge_ok`, queued in lattice order.  None of them is blocked: a blocked
    parent would contain the ridge.
    """
    parent: dict[int, Face | None] = {f.mask: None}
    queue = deque([f])
    while queue:
        current = queue.popleft()
        if current == g:
            faces = [current]
            while (current := parent[current.mask]) is not None:
                faces.append(current)
            return tuple(reversed(faces))
        fresh = []
        for ridge in lattice.children(current):
            if not _ridge_ok(ridge, blocked):
                continue
            for node in lattice.parents(ridge):
                if node.mask not in parent:
                    parent[node.mask] = current
                    fresh.append(node)
        queue.extend(sorted(fresh, key=lambda x: x.vertex_set))
    return None


def _solve(
    p: VPolytope, blocked: tuple[Face, ...], f: Face, g: Face
) -> tuple[tuple[Face, ...], tuple[Hyperplane, ...]]:
    """The path's faces, and one cutting plane per level, outermost first.

    The faces are those of p's lattice; the path's have dimension k = f.dim,
    and at most k are blocked, so a k = 0 request goes to the plain search."""
    if f == g or f.dim == 1 or not blocked:
        faces = _bfs_ridge_path(p.lattice, blocked, f, g)
        if faces is None:
            raise RidgePathError(
                f"ridge graph of {f.dim}-faces is disconnected after removing "
                f"{sorted(b.id for b in blocked)}; this contradicts the connectivity bound"
            )
        return faces, ()

    r = min(blocked, key=lambda b: b.vertex_set)
    h, _ = search_cutting_hyperplane(p, f, g, r)
    slice_polytope, phi = section(p, h)

    def sliced(x: Face) -> Face:
        return slice_polytope.lattice.face_of_mask(phi[x.mask])

    # The plane passes through interior points of f and g, so both are cut,
    # and misses r.  Section maps distinct cut faces to distinct slice faces,
    # so the slice keeps f and g distinct and unblocked, with at most k - 1
    # blocked.
    blocked_slice = tuple(sliced(b) for b in blocked if b.mask in phi)
    faces, planes = _solve(slice_polytope, blocked_slice, sliced(f), sliced(g))
    lift = {s: b for b, s in phi.items()}
    return tuple(p.lattice.face_of_mask(lift[x.mask]) for x in faces), (h,) + planes


def _resolve_request(
    lattice: FaceLattice, b: BlockedSet, f_id: str, g_id: str
) -> tuple[tuple[Face, ...], Face, Face]:
    """The blocked faces and the two endpoints a request names.

    Ids are checked in order, blocked ones sorted first; the first defect is
    the error.
    """
    k = b.k
    if k > lattice.dim - 1:
        raise RidgePathError(f"k={k} out of range [0, {lattice.dim - 1}]")
    faces = []
    for fid in sorted(b.face_ids) + [f_id, g_id]:
        try:
            face = lattice.face(fid)
        except PolytopeError as exc:
            raise RidgePathError(str(exc)) from None
        if face.dim != k:
            raise RidgePathError(f"face {fid!r} has dimension {face.dim}, expected {k}")
        faces.append(face)
    *blocked, f, g = faces
    if f in blocked or g in blocked:
        raise RidgePathError("endpoints may not be blocked")
    return tuple(blocked), f, g


def solve_ridge_path(p: VPolytope, b: BlockedSet, f_id: str, g_id: str) -> RidgePathResult:
    """A path of b.k-faces from f to g through (b.k-1)-ridges avoiding b.

    The result also carries the cutting hyperplanes used, outermost first
    (their count is the recursion depth).  The construction is deterministic:
    a request always gives the same path and the same planes.  The path is
    not checked here; `verify_ridge_path` certifies it apart from the solver.
    """
    blocked, f, g = _resolve_request(p.lattice, b, f_id, g_id)
    faces, planes = _solve(p, blocked, f, g)
    # phi is injective, keeps order both ways and drops dimension by one, so a
    # lifted ridge is a (k-1)-face of both neighbours: their meet, empty at k = 0.
    ridges = tuple(face_id(x.mask & y.mask) for x, y in zip(faces, faces[1:]))
    return RidgePathResult(RidgePath(tuple(x.id for x in faces), ridges), planes)


def verify_ridge_path(
    lattice: FaceLattice,
    k: int,
    b: BlockedSet,
    path: RidgePath,
    f_id: str,
    g_id: str,
) -> bool:
    """Independent lattice-only check of a claimed path; False on any defect."""
    try:
        blocked = [lattice.face(fid) for fid in b.face_ids]
        if b.k != k or k > lattice.dim - 1:
            return False
        if any(face.dim != k for face in blocked):
            return False
        if not path.faces or len(path.ridges) != len(path.faces) - 1:
            return False
        if path.faces[0] != f_id or path.faces[-1] != g_id:
            return False
        faces = [lattice.face(fid) for fid in path.faces]
        if any(face.dim != k or face in blocked for face in faces):
            return False
        for left, right, ridge_id in zip(faces, faces[1:], path.ridges):
            if left == right:
                return False
            ridge = lattice.face(ridge_id)
            if ridge.dim != k - 1 or left.mask & right.mask != ridge.mask:
                return False
            if not _ridge_ok(ridge, blocked):
                return False
        return True
    except (PolytopeError, RidgePathError):
        return False
