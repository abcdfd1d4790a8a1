"""Response checks against facts computed independently of the solver.

Each check takes a parsed CLI envelope and returns a list of problems (empty
when the response is right).  Lattice responses are checked against
closed-form f-vectors, Euler-Poincare, face ids, the two-facets-per-ridge
rule and the diamond property; connectivity witnesses are re-checked with a
BFS written here; ridge paths are re-verified on the lattice.  Hyperplane
bytes are never compared: they are allowed to change.
"""

from __future__ import annotations

from collections import deque
from math import comb

from facelab.hypergraph import build_hypergraph
from facelab.polytope import FaceLattice, VPolytope, face_lattice
from facelab.geometry import QVector, parse_rational
from facelab.ridgepath import BlockedSet, RidgePath, verify_ridge_path


def closed_form_f_vector(family: str, d: int) -> tuple[int, ...] | None:
    """f_0..f_{d-1} for the families with a closed form, else None."""
    if family == "cube":
        return tuple(comb(d, k) * 2 ** (d - k) for k in range(d))
    if family == "cross":
        return tuple(2 ** (k + 1) * comb(d, k + 1) for k in range(d))
    if family == "simplex":
        return tuple(comb(d + 1, k + 1) for k in range(d))
    if family == "pyramid":
        # Pyramid over the (d-1)-cube: f_k = f_k(base) + f_{k-1}(base), f_{-1} = 1.
        base = (1,) + closed_form_f_vector("cube", d - 1) + (1,)
        return tuple(base[k + 1] + base[k] for k in range(d))
    if family == "prism":
        # Prism over the (d-1)-simplex: f_k = 2 f_k(base) + f_{k-1}(base), f_{-1} = 0.
        base = (0,) + closed_form_f_vector("simplex", d - 1) + (1,)
        return tuple(2 * base[k + 1] + base[k] for k in range(d))
    return None


def _face_id(vertices: list[int]) -> str:
    return "-".join(f"v{i}" for i in vertices) if vertices else "empty"


def check_envelope(env: dict, command: str) -> list[str]:
    if env.get("command") != command or env.get("status") != "ok":
        return [f"envelope is {env.get('command')!r}/{env.get('status')!r}: {env.get('error')}"]
    return []


def check_lattice(out: dict, family: str) -> list[str]:
    d = out["dim"]
    faces = out["faces"]
    problems = []
    by_id = {}
    for face in faces:
        if face["id"] != _face_id(face["vertices"]):
            problems.append(f"face id {face['id']} does not match its vertices")
        by_id[face["id"]] = (face["dim"], frozenset(face["vertices"]))
    if len(by_id) != len(faces):
        problems.append("duplicate face ids")
    counts = [0] * (d + 2)
    for dim, _ in by_id.values():
        counts[dim + 1] += 1
    if counts[0] != 1 or counts[d + 1] != 1:
        problems.append("not exactly one empty and one full face")
    f_vector = tuple(out["f_vector"])
    if f_vector != tuple(counts[1 : d + 1]):
        problems.append(f"f_vector {f_vector} disagrees with the face list")
    if sum((-1) ** k * fk for k, fk in enumerate(f_vector)) != 1 - (-1) ** d:
        problems.append(f"f_vector {f_vector} violates Euler-Poincare")
    expected = closed_form_f_vector(family, d)
    if expected is not None and f_vector != expected:
        problems.append(f"f_vector {f_vector} != closed form {expected}")
    facet_sets = [vs for dim, vs in by_id.values() if dim == d - 1]
    for dim, vs in by_id.values():
        if dim == d - 2 and sum(vs <= fs for fs in facet_sets) != 2:
            problems.append("a ridge does not lie in exactly two facets")
            break
    up: dict[str, list[str]] = {fid: [] for fid in by_id}
    down: dict[str, int] = {fid: 0 for fid in by_id}
    for child, parent in out["inclusions"]:
        if child not in by_id or parent not in by_id:
            problems.append(f"inclusion {child} < {parent} names an unknown face")
            return problems
        (cd, cs), (pd, ps) = by_id[child], by_id[parent]
        if pd != cd + 1 or not cs < ps:
            problems.append(f"inclusion {child} < {parent} is not a cover")
        up[child].append(parent)
        down[parent] += 1
    for fid, (dim, _) in by_id.items():
        if (dim < d and not up[fid]) or (dim > -1 and not down[fid]):
            problems.append(f"face {fid} lacks a cover")
            break
    for low in by_id:
        middles: dict[str, int] = {}
        for mid in up[low]:
            for high in up[mid]:
                middles[high] = middles.get(high, 0) + 1
        if any(count != 2 for count in middles.values()):
            problems.append(f"diamond property fails above {low}")
            break
    return problems


def check_dual(out: dict, family: str, d: int) -> list[str]:
    """The dual's f-vector is the input's reversed (inputs with a closed form)."""
    primal = closed_form_f_vector(family, d)
    if out["dim"] != d or out["n_vertices"] != primal[d - 1]:
        return [f"dual has dim {out['dim']} and {out['n_vertices']} vertices"]
    points = [QVector.of(parse_rational(x) for x in row) for row in out["vertices"]]
    dual = face_lattice(VPolytope.from_points(points, validate=False))
    if dual.f_vector != primal[::-1]:
        return [f"dual f_vector {dual.f_vector} is not {primal[::-1]}"]
    return []


def check_verify(out: dict, d: int) -> list[str]:
    problems = []
    if out["dim"] != d or out["pass"] is not True:
        problems.append(f"verify-theorem did not pass at dim {d}")
    if [r["k"] for r in out["results"]] != list(range(d)):
        problems.append("verify-theorem did not report every k")
    for r in out["results"]:
        if r["bound"] != d - r["k"] or r["alpha"] < r["bound"] or r["pass"] is not True:
            problems.append(f"k={r['k']}: alpha {r['alpha']} below bound {r['bound']}")
    return problems


def witness_disconnects(hg, witness: dict) -> bool:
    """BFS over the hypergraph after the removal: is component_a closed?"""
    removed = set(witness["removed"])
    a, b = set(witness["component_a"]), set(witness["component_b"])
    survivors = set(hg.nodes) - removed
    if not a or not b or a & b or a | b != survivors or not removed <= set(hg.nodes):
        return False
    live = [members for _, members in hg.hyperedges if not members & removed]
    start = witness["component_a"][0]
    seen, queue = {start}, deque([start])
    while queue:
        node = queue.popleft()
        for members in live:
            if node in members:
                for other in members - seen:
                    seen.add(other)
                    queue.append(other)
    return seen == a


def check_connectivity(out: dict, lattice: FaceLattice, meta: dict) -> list[str]:
    """`meta` holds the request's k and cap and the alpha it must report."""
    k, cap, alpha = meta["k"], meta["cap"], meta["alpha"]
    if out["k"] != k or out["cap"] != cap or out["alpha"] != alpha:
        return [f"k={k} cap={cap}: alpha {out['alpha']}, expected {alpha}"]
    witness = out["witness"]
    if witness is None:
        if alpha < cap or out["capped"] is not True:
            return [f"k={k}: no witness, yet alpha {alpha} < cap {cap} or not capped"]
        return []
    if len(witness["removed"]) != out["alpha"]:
        return [f"k={k}: witness size {len(witness['removed'])} != alpha {out['alpha']}"]
    if not witness_disconnects(build_hypergraph(lattice, k), witness):
        return [f"k={k}: witness {witness['removed']} does not disconnect"]
    return []


def check_ridge(out: dict, lattice: FaceLattice, meta: dict) -> list[str]:
    if out["verified"] is not True:
        return ["ridge path not verified by the program"]
    path = RidgePath(tuple(out["path"]), tuple(out["ridges"]))
    b = BlockedSet.of(meta["k"], meta["blocked"])
    if not verify_ridge_path(lattice, meta["k"], b, path, meta["from"], meta["to"]):
        return ["ridge path fails verify_ridge_path on the lattice"]
    return []


def ridge_reachable(
    lattice: FaceLattice, k: int, blocked: list[str], f_id: str, g_id: str
) -> bool:
    """BFS on the ridge graph of k-faces outside the blocked set."""
    blocked_sets = [set(lattice.face(b).vertex_set) for b in blocked]
    nodes = [f for f in lattice.faces_of_dim(k) if f.id not in blocked]
    start = lattice.face(f_id)
    seen, queue = {f_id}, deque([start])
    while queue:
        cur = queue.popleft()
        if cur.id == g_id:
            return True
        for other in nodes:
            if other.id in seen:
                continue
            common = set(cur.vertex_set) & set(other.vertex_set)
            meet = lattice.face_of_set(common)
            if meet is None or meet.dim != k - 1:
                continue
            if any(common <= bs for bs in blocked_sets):
                continue
            seen.add(other.id)
            queue.append(other)
    return False
