"""Traced entry point: wrap facelab's public functions, then run its CLI.

Usage: python trace_entry.py TRACE_FILE FACELAB_ARG...

The wrappers record one span per call (name, start, end, parent, and a few
attributes such as search attempts) in memory and write them, with the
counters and the names that could not be wrapped, to TRACE_FILE as JSON
when the command ends.  The library itself is not modified: each wrapper
replaces the function on every facelab module that binds it.  A name that no
longer exists is recorded as absent and skipped.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns


def _scan_attrs(args, kwargs, report) -> dict:
    hg = kwargs.get("hg", args[0] if args else None)
    cap = kwargs.get("cap", args[1] if len(args) > 1 else None)
    witness = report.witness
    index = {node: i for i, node in enumerate(hg.nodes)}
    return {
        "n": hg.n_nodes,
        "cap": cap,
        "alpha": report.alpha,
        "witness": sorted(index[r] for r in witness.removed) if witness else None,
    }


# (module, attribute, span name, attribute extractor or None)
SPANS = (
    ("facelab.cli", "run", "cli.run", None),
    ("facelab.cli", "CommandResult.render", "cli.render", None),
    ("facelab.polytope", "load_polytope", "polytope.load", None),
    ("facelab.polytope", "facets", "polytope.facets", None),
    ("facelab.polytope", "face_lattice", "polytope.face_lattice",
     lambda a, kw, r: {"faces": len(r)}),
    ("facelab.polytope", "FaceLattice.to_json_dict", "polytope.lattice_export", None),
    ("facelab.polytope", "polar_dual", "polytope.dual", None),
    ("facelab.geometry", "solve_nonnegative", "geometry.lp", None),
    ("facelab.hypergraph", "build_hypergraph", "hypergraph.build", None),
    ("facelab.hypergraph", "strong_connectivity", "hypergraph.scan", _scan_attrs),
    ("facelab.ridgepath", "solve_ridge_path", "ridgepath.solve", None),
    ("facelab.ridgepath", "search_cutting_hyperplane", "ridgepath.search",
     lambda a, kw, r: {"attempts": r[1]}),
    ("facelab.ridgepath", "verify_ridge_path", "ridgepath.verify", None),
    ("facelab.section", "section", "section.slice",
     lambda a, kw, r: {"slice_faces": len(r.slice_lattice)}),
)

# (module, attribute, counter name): calls counted, too many and too short to span.
COUNTERS = (("facelab.geometry", "hyperplane_through", "geometry.hyperplane_through_calls"),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter_ns()
            if attrs is not None:
                try:
                    spans[idx][4] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return wrapper

    def counter(self, name: str, fn, _attrs):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        facelab_modules = [
            m for name, m in sys.modules.items() if name.split(".")[0] == "facelab"
        ]
        plans = [(m, a, n, x, self.span) for m, a, n, x in SPANS]
        plans += [(m, a, n, None, self.counter) for m, a, n in COUNTERS]
        for module_name, attr, name, attrs, make in plans:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if not callable(original):
                self.absent.append(attr)
                continue
            wrapper = make(name, original, attrs)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for module in facelab_modules:
                if getattr(module, leaf, None) is original:
                    setattr(module, leaf, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent}, fh)


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import facelab.cli

    tracer = Tracer()
    tracer.install()
    try:
        return facelab.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
