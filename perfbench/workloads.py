"""Seeded request lists for the facelab benchmark.

A workload is one pass of requests: a fixed composition (how many requests
of each kind on each polytope) that the seed fills in and orders.  The
composition is fixed so that two seeds cost about the same; the seed picks
the random polytopes' coordinates, the ridge-path blocked sets, endpoints and
sampler seeds, and the order of the pass.

Setup generates every polytope of the workload with `facelab.generators` and
writes it as a file; the program under test then only reads those files and
its argv.  Ridge queries are drawn from face lattices computed when the plan
is made; that drawing is not part of the setup time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from facelab.generators import GeneratorSpec, generate
from facelab.polytope import FaceLattice, VPolytope, face_lattice, save_polytope

from checks import ridge_reachable

WORKLOADS = ("lattice", "verify", "ridge")

# Polytopes that need no seed, by file stem.
FIXED_SPECS = {
    "cube3": ("cube", 3, None),
    "cube4": ("cube", 4, None),
    "cross4": ("cross", 4, None),
    "cross5": ("cross", 5, None),
    "cross6": ("cross", 6, None),
    "simplex5": ("simplex", 5, None),
    "prism5": ("prism", 5, None),
    "pyramid5": ("pyramid", 5, None),
    "cyclic4_8": ("cyclic", 4, 8),
    "cyclic4_9": ("cyclic", 4, 9),
    "cyclic4_10": ("cyclic", 4, 10),
    "cyclic5_9": ("cyclic", 5, 9),
    "cyclic5_10": ("cyclic", 5, 10),
    "cyclic5_11": ("cyclic", 5, 11),
    "cyclic5_12": ("cyclic", 5, 12),
}

# alpha of each witness request (stem -> k -> alpha at cap d - k + 1), as
# facelab's exhaustive scan found it when these requests were chosen.  An
# alpha below the cap must come with a witness of that size.
WITNESS_ALPHAS = {
    "cube3": {0: 3, 1: 2},
    "cube4": {1: 3},
    "cross4": {0: 5, 1: 4, 2: 2},
    "simplex5": {0: 6, 1: 4, 2: 3, 3: 2},
    "cyclic4_10": {0: 5, 1: 3, 2: 2},
}

# The thin-cone ridge queries come from this fixed stream, not from the
# workload seed.  About one of their searches in five exhausts the sampler
# and costs ten times a normal query, so drawing them per seed would swing
# the cost of a pass by about 16% between seeds; fixed, they form the same
# tail group under every seed.
THIN_CONE_STREAM = 20201011


@dataclass
class Request:
    """One facelab invocation: its argv plus what the checker needs."""

    kind: str
    argv: list[str]
    stem: str
    meta: dict = field(default_factory=dict)


class Plan:
    """A workload's polytopes, generated on first use, and its request pass."""

    def __init__(self) -> None:
        self.specs: dict[str, GeneratorSpec] = {}
        self.polytopes: dict[str, VPolytope] = {}
        self.requests: list[Request] = []
        self.generate_s = 0.0  # time spent in generate() while making the plan
        self._lattices: dict[str, FaceLattice] = {}

    def fixed(self, stem: str) -> str:
        family, dim, n = FIXED_SPECS[stem]
        return self._add(stem, GeneratorSpec(family=family, dim=dim, n=n))

    def random(self, stem: str, rng: random.Random, d: int, n: int) -> str:
        return self._add(
            stem, GeneratorSpec(family="random", dim=d, n=n, seed=rng.randrange(1, 10**6))
        )

    def _add(self, stem: str, spec: GeneratorSpec) -> str:
        if stem not in self.specs:
            self.specs[stem] = spec
            start = perf_counter()
            self.polytopes[stem] = generate(spec)
            self.generate_s += perf_counter() - start
        return stem

    def regenerate(self) -> None:
        """Generate every polytope again from its spec (the same polytopes)."""
        self.polytopes = {stem: generate(spec) for stem, spec in self.specs.items()}

    def lattice(self, stem: str) -> FaceLattice:
        if stem not in self._lattices:
            self._lattices[stem] = face_lattice(self.polytopes[stem])
        return self._lattices[stem]

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for stem, p in self.polytopes.items():
            save_polytope(p, str(directory / poly_file(stem)))


def poly_file(stem: str) -> str:
    return f"{stem}.poly"


def _requests(plan: Plan, kind: str, command: str, stem: str, count: int) -> None:
    plan.requests += [Request(kind, [command, poly_file(plan.fixed(stem))], stem)] * count


def _lattice_plan(plan: Plan, rng: random.Random) -> None:
    # Sorted by latency a pass reads: 16 requests under 1 s (the cross4
    # duals and random d=4), 19 of 1.0-1.4 s (cube4, cyclic(5,12), random
    # (5,12) and the cube4 duals), and 5 heavier ones.  The median and the
    # p75 tail both fall inside the middle block.
    for stem, count in (("pyramid5", 1), ("cross6", 3), ("cyclic5_12", 5), ("cube4", 5)):
        _requests(plan, "lattice", "lattice", stem, count)
    # Each random polytope is asked for more than once (except d=5, n=13),
    # so setup generates fewer of them.
    for d, n, polytopes, count in ((4, 12, 3, 3), (4, 14, 1, 3), (5, 12, 3, 2), (5, 13, 1, 1)):
        for j in range(polytopes):
            stem = plan.random(f"random{d}_{n}_{j}", rng, d, n)
            plan.requests += [Request("lattice", ["lattice", poly_file(stem)], stem)] * count
    # Duals only of cubes and cross-polytopes, whose f-vectors have a closed form.
    for stem, count in (("cube4", 3), ("cross4", 4)):
        _requests(plan, "dual", "dual", stem, count)


def _verify_plan(plan: Plan, rng: random.Random) -> None:
    # Sorted by latency a pass reads: 12 requests of about 0.2 s (simplex5,
    # cube3 and most cross4 witness requests), then a run of distinct costs
    # from 0.3 s to 1.1 s (cyclic(4,10) witnesses, prism5, seeded random(5,8)
    # and (5,9), cyclic(5,9), cube4), then 6 of 1.2-6 s.  The median and the
    # p75 tail fall inside that run, so a machine that is briefly faster or
    # slower moves them in proportion rather than flipping them between two
    # kinds of request.  cyclic(5,12) is left out: at 10-12 s here it is
    # over the 10 s ceiling.
    counts = {
        "cyclic5_9": 4, "cyclic5_10": 1, "cyclic5_11": 1,
        "cross5": 2, "prism5": 3, "simplex5": 4,
    }
    for stem, count in counts.items():
        _requests(plan, "verify", "verify-theorem", stem, count)
    for n, polytopes in ((8, 6), (9, 4), (10, 2)):
        for j in range(polytopes):
            stem = plan.random(f"random5_{n}_{j}", rng, 5, n)
            plan.requests.append(Request("verify", ["verify-theorem", poly_file(stem)], stem))
    # Witness requests take a fixed list of k, so the seed changes their
    # order, not their cost.
    for stem, alphas in WITNESS_ALPHAS.items():
        d = plan.polytopes[plan.fixed(stem)].dim
        for k, alpha in alphas.items():
            cap = d - k + 1
            argv = ["connectivity", poly_file(stem), "--k", str(k), "--cap", str(cap), "--witness"]
            meta = {"k": k, "cap": cap, "alpha": alpha}
            plan.requests.append(Request("connectivity", argv, stem, meta))


def _ridge_query(plan: Plan, rng: random.Random, stem: str, k: int, n_blocked: int) -> Request:
    """A seeded query with a path the benchmark's own BFS confirms exists."""
    lattice = plan.lattice(stem)
    faces = [f.id for f in lattice.faces_of_dim(k)]
    while True:
        blocked = rng.sample(faces, n_blocked)
        rest = [fid for fid in faces if fid not in blocked]
        f_id, g_id = rng.sample(rest, 2)
        if ridge_reachable(lattice, k, blocked, f_id, g_id):
            break
    argv = [
        "ridge-path", poly_file(stem), "--k", str(k), "--blocked", ",".join(blocked),
        "--from", f_id, "--to", g_id, "--seed", str(rng.randrange(1000)), "--verify",
    ]
    return Request("ridge", argv, stem, {"k": k, "blocked": blocked, "from": f_id, "to": g_id})


def _ridge_plan(plan: Plan, rng: random.Random) -> None:
    # |B| = k >= 2, with a fixed list of k per polytope so the seed does not
    # shift the mix of recursion depths.
    ks = {"cube3": [2, 2], "cross4": [2, 3, 2, 3], "cross5": [2, 3, 4, 3, 2],
          "prism5": [2, 3, 4, 2, 3], "simplex5": [2, 3, 4, 2]}
    for stem in list(ks):
        plan.fixed(stem)
    for j in range(3):
        ks[plan.random(f"random4_10_{j}", rng, 4, 10)] = [2 + j % 2]
        ks[plan.random(f"random4_11_{j}", rng, 4, 11)] = [3 - j % 2]
    for stem, k_list in ks.items():
        for k in k_list:
            plan.requests.append(_ridge_query(plan, rng, stem, k, k))
    # BFS-only queries: k = 1 with one blocked edge, or k = 2 with none.
    bfs_only = (("cube3", 1, 1), ("cross5", 2, 0), ("prism5", 1, 1), ("cyclic4_9", 2, 0))
    for stem, k, n_blocked in bfs_only:
        plan.requests.append(_ridge_query(plan, rng, plan.fixed(stem), k, n_blocked))
    thin_rng = random.Random(THIN_CONE_STREAM)
    thin = ("cyclic4_8", "cyclic4_9", "cyclic4_10")
    for i in range(12):
        stem = plan.fixed(thin[i % len(thin)])
        k = 2 + i // len(thin) % 2
        plan.requests.append(_ridge_query(plan, thin_rng, stem, k, k))


def make_plan(workload: str, seed: int) -> Plan:
    """The seeded polytopes and request pass of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    builder = {
        "lattice": _lattice_plan,
        "verify": _verify_plan,
        "ridge": _ridge_plan,
    }[workload]
    plan = Plan()
    builder(plan, rng)
    rng.shuffle(plan.requests)
    return plan
