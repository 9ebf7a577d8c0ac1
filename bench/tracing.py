"""In-memory spans around calls into pushgraph's public functions.

`Tracer.install` wraps each function in LAYERS and rebinds every attribute of
every loaded `pushgraph` module that refers to it, so calls made through
cross-module imports (`from .push import push_equivalent`) are timed too.
`graph.OrientedGraph` is timed by wrapping its `__init__` in place: rebinding
the class name to a function would break `isinstance` and the dataclass.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

LAYERS = {
    "isomorphism": ("canonical_code", "is_isomorphic", "refine_colors", "is_homomorphism"),
    "push": ("push", "anti_twinned", "push_orbit", "push_equivalent", "repair_isomorphism"),
    "graph": ("OrientedGraph", "parse_graph", "emit_graph"),
    "hom": (
        "find_hom",
        "find_push_hom",
        "push_chromatic_number",
        "oriented_chromatic_number",
        "enumerate_tournaments",
    ),
    "coloring": ("push_color_to_paley", "color_outerplanar_g5", "build_extension_tables"),
    "density": ("mad_less_than", "max_average_degree"),
    "cli": ("main",),
    "verify": ("enumerate_oriented_graphs",),
    "families": ("random_sparse", "random_outerplanar"),
}

LAYER_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)

# searches whose results carry a `nodes` field; nested ones share the outer
# search's tracker, so only the outermost result is counted
NODE_COUNTING = frozenset(
    {"hom.find_hom", "hom.find_push_hom", "hom.push_chromatic_number", "hom.oriented_chromatic_number"}
)

COUNTS = ("hom.nodes", "coloring.reductions")


class Tracer:
    """Collects spans as [name, start, end, parent index, op id] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = "setup"
        self._stack: list[int] = []
        self._search_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pushgraph" or name.startswith("pushgraph."))
        ]
        for module_name, fns in LAYERS.items():
            module = sys.modules[f"pushgraph.{module_name}"]
            for fn in fns:
                name = f"{module_name}.{fn}"
                original = getattr(module, fn)
                if isinstance(original, type):
                    self._rebind(original, "__init__", self._wrap(name, original.__init__))
                    continue
                wrapped = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counts_nodes = name in NODE_COUNTING
        counts_reductions = name == "coloring.push_color_to_paley"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            outermost_search = counts_nodes and self._search_depth == 0
            if counts_nodes:
                self._search_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if counts_nodes:
                    self._search_depth -= 1
            if outermost_search:
                counts["hom.nodes"] += result.nodes
            if counts_reductions:
                counts["coloring.reductions"] += len(result.trace)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def layer_totals(spans: list[list], keep) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per layer over the spans whose op id passes `keep`."""
    totals = {name: [0, 0.0] for name in LAYER_NAMES}
    for span, own in zip(spans, self_times(spans)):
        if keep(span[4]):
            entry = totals[span[0]]
            entry[0] += 1
            entry[1] += own
    return {name: (calls, own) for name, (calls, own) in totals.items()}
