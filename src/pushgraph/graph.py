"""Oriented-graph data model: validation, structural queries, surgery, text I/O.

An oriented graph is a directed graph with no loops and no pair of opposite
arcs, over dense integer vertex ids 0..n-1.  Graphs are immutable after
construction; every operation returns a new graph.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Violation of the oriented-graph constraints (loop, 2-cycle, range)."""


class FormatError(GraphError):
    """Malformed text in the line-oriented graph format."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


Arc = tuple[int, int]


@dataclass(frozen=True)
class OrientedGraph:
    """Immutable oriented graph on vertices 0..n-1 with a sorted arc tuple."""

    n: int
    arcs: tuple[Arc, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise GraphError(f"vertex count must be non-negative, got {self.n}")
        arcs = sorted({(int(u), int(v)) for u, v in self.arcs})
        seen = set()
        for u, v in arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"arc ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if (v, u) in seen:
                raise GraphError(f"2-cycle between {u} and {v}")
            seen.add((u, v))
        object.__setattr__(self, "arcs", tuple(arcs))

    # -- adjacency -----------------------------------------------------------

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.arcs:
            masks[u] |= 1 << v
        return tuple(masks)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.arcs:
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Underlying neighbours of each vertex, in O(n + m) space; the n-bit
        masks above are for bit-parallel searches only."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    def out_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(_bits(self.out_masks[v]))

    def in_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(_bits(self.in_masks[v]))

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self.adjacency[v])

    def out_degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.out_masks[v].bit_count()

    def in_degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.in_masks[v].bit_count()

    def degree(self, v: int) -> int:
        """Degree of v in the underlying simple graph."""
        self._check_vertex(v)
        return len(self.adjacency[v])

    def has_arc(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.out_masks[u] >> v & 1)

    # -- surgery -------------------------------------------------------------

    def relabel(self, perm: Sequence[int]) -> "OrientedGraph":
        """Return the graph with vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError("relabeling is not a permutation of the vertex set")
        return OrientedGraph(self.n, tuple((perm[u], perm[v]) for u, v in self.arcs))

    def induced(self, vertices: Iterable[int]) -> tuple["OrientedGraph", dict[int, int]]:
        """Induced subgraph on the given vertices, relabeled 0..k-1 in sorted order.

        Returns the subgraph and the old-id -> new-id mapping.
        """
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        index = {v: i for i, v in enumerate(keep)}
        arcs = [(index[u], index[v]) for u, v in self.arcs if u in index and v in index]
        return OrientedGraph(len(keep), tuple(arcs)), index


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def underlying_girth(g: OrientedGraph) -> int | float:
    """Length of the shortest cycle of the underlying simple graph (inf for forests).

    BFS from every vertex; a non-tree edge (x, y) seen at depths d(x), d(y)
    closes a cycle of length d(x) + d(y) + 1.
    """
    adj = g.adjacency
    best = math.inf
    for start in range(g.n):
        dist = {start: 0}
        parent = {start: -1}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            if dist[x] * 2 >= best:
                break
            for y in adj[x]:
                if y == parent[x]:
                    continue
                if y in dist:
                    best = min(best, dist[x] + dist[y] + 1)
                else:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
    return best


def parse_graph(text: str) -> OrientedGraph:
    """Parse the line-oriented text format: `oriented <n>` then `a <u> <v>` lines."""
    n: int | None = None
    arcs: list[Arc] = []
    seen: set[Arc] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if fields[0] != "oriented" or len(fields) != 2:
                raise FormatError("expected header 'oriented <n>'", line_no)
            try:
                n = int(fields[1])
            except ValueError:
                raise FormatError(f"bad vertex count {fields[1]!r}", line_no) from None
            if n < 0:
                raise FormatError(f"negative vertex count {n}", line_no)
            continue
        if fields[0] != "a" or len(fields) != 3:
            raise FormatError(f"expected arc line 'a <u> <v>', got {line!r}", line_no)
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise FormatError(f"non-integer endpoint in {line!r}", line_no) from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"arc ({u}, {v}) out of range for n={n}", line_no)
        if u == v:
            raise FormatError(f"loop at vertex {u}", line_no)
        if (u, v) in seen:
            raise FormatError(f"duplicate arc ({u}, {v})", line_no)
        if (v, u) in seen:
            raise FormatError(f"2-cycle between {u} and {v}", line_no)
        seen.add((u, v))
        arcs.append((u, v))
    if n is None:
        raise FormatError("missing 'oriented <n>' header")
    return OrientedGraph(n, tuple(arcs))


def emit_graph(g: OrientedGraph) -> str:
    """Emit the text format with arcs in lexicographic order."""
    lines = [f"oriented {g.n}"]
    lines.extend(f"a {u} {v}" for u, v in g.arcs)
    return "\n".join(lines) + "\n"
