"""Per-layer metrics from the spans the traced entry script writes.

A span's self time is its duration minus its direct children's durations
(calls are sequential, so children never overlap).  Times and counts are
means per traced request; ratios are taken over the run's totals and their
numerator and denominator are returned beside them.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb

# Metric -> span whose self time it is.
SELF_TIMES = {
    "cli.run_s": "cli.run",
    "cli.render_s": "cli.render",
    "polytope.load_s": "polytope.load",
    "polytope.facets_s": "polytope.facets",
    "polytope.lattice_closure_s": "polytope.face_lattice",
    "polytope.lattice_export_s": "polytope.lattice_export",
    "polytope.dual_s": "polytope.dual",
    "geometry.lp_s": "geometry.lp",
    "hypergraph.build_s": "hypergraph.build",
    "hypergraph.scan_s": "hypergraph.scan",
    "ridgepath.search_s": "ridgepath.search",
    "ridgepath.verify_s": "ridgepath.verify",
    "ridgepath.bfs_s": "ridgepath.solve",
    "section.slice_s": "section.slice",
}

CALLS = {
    "polytope.facets_calls": "polytope.facets",
    "geometry.lp_calls": "geometry.lp",
    "ridgepath.search_calls": "ridgepath.search",
    "section.calls": "section.slice",
}


def combination_rank(combo: list[int], n: int) -> int:
    """Position of a sorted combination among all of its size, lexicographically."""
    rank, prev, size = 0, -1, len(combo)
    for i, c in enumerate(combo):
        for j in range(prev + 1, c):
            rank += comb(n - 1 - j, size - 1 - i)
        prev = c
    return rank


def subsets_scanned(n: int, cap: int, alpha: int, witness: list[int] | None) -> int:
    """Removal sets a sequential scan examines before it stops."""
    if witness is None:
        return sum(comb(n, s) for s in range(min(cap, n + 1)))
    return sum(comb(n, s) for s in range(alpha)) + combination_rank(witness, n) + 1


class LayerTotals:
    """Accumulates traced requests; `metrics` turns them into per-layer values."""

    def __init__(self) -> None:
        self.requests = 0
        self.latency_s = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.attempts_max = 0
        self.absent: set[str] = set()

    def add(self, doc: dict, latency_s: float) -> None:
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        top_s = 0.0
        for (name, start, end, parent, attrs), inner in zip(spans, child_ns):
            self.self_s[name] += (end - start - inner) / 1e9
            self.total_s[name] += (end - start) / 1e9
            self.calls[name] += 1
            if parent < 0:
                top_s += (end - start) / 1e9
            if not attrs:
                continue
            if name == "polytope.face_lattice":
                self.counts["polytope.faces"] += attrs["faces"]
            elif name == "hypergraph.scan":
                self.counts["hypergraph.subsets_scanned"] += subsets_scanned(
                    attrs["n"], attrs["cap"], attrs["alpha"], attrs["witness"]
                )
            elif name == "ridgepath.search":
                self.counts["ridgepath.search_attempts"] += attrs["attempts"]
                self.attempts_max = max(self.attempts_max, attrs["attempts"])
            elif name == "section.slice":
                self.counts["section.slice_faces"] += attrs["slice_faces"]
        for name, value in doc["counts"].items():
            self.counts[name] += value
        self.self_s["cli.process"] += latency_s - top_s
        self.absent.update(doc["absent"])
        self.requests += 1
        self.latency_s += latency_s

    def metrics(self, untraced_rps: float, traced_rps: float) -> tuple[dict, list[str]]:
        """Per-layer values by metric name, plus the numerator/denominator
        lines of the ratios."""
        per = 1 / max(self.requests, 1)
        values = {m: self.self_s[span] * per for m, span in SELF_TIMES.items()}
        values["cli.process_s"] = self.self_s["cli.process"] * per
        values["ridgepath.solve_s"] = self.total_s["ridgepath.solve"] * per
        for metric, span in CALLS.items():
            values[metric] = self.calls[span] * per
        for name in (
            "polytope.faces", "geometry.hyperplane_through_calls",
            "hypergraph.subsets_scanned", "ridgepath.search_attempts", "section.slice_faces",
        ):
            values[name] = self.counts[name] * per
        values["ridgepath.search_attempts_max"] = self.attempts_max
        subsets, scan_s = self.counts["hypergraph.subsets_scanned"], self.self_s["hypergraph.scan"]
        calls, attempts = self.calls["ridgepath.search"], self.counts["ridgepath.search_attempts"]
        in_spans = sum(v for k, v in self.self_s.items() if k != "cli.process")
        values["hypergraph.subsets_per_s"] = subsets / scan_s if scan_s else 0.0
        values["ridgepath.search_yield"] = calls / attempts if attempts else 0.0
        values["trace.overhead"] = untraced_rps / traced_rps - 1 if traced_rps else 0.0
        notes = [
            f"hypergraph.subsets_per_s = {subsets} subsets / {scan_s:.4f} s",
            f"ridgepath.search_yield = {calls} searches / {attempts} attempts",
            f"self times {in_spans:.4f} s + cli.process {self.self_s['cli.process']:.4f} s"
            f" = traced latency {self.latency_s:.4f} s over {self.requests} requests",
            f"trace.overhead = {untraced_rps:.4f} / {traced_rps:.4f} req/s - 1",
        ]
        if self.absent:
            notes.append("absent (not wrapped): " + ", ".join(sorted(self.absent)))
        return values, notes
