"""Exact maximum average degree: Dinkelbach iteration over Goldberg min cuts.

All arithmetic is integral or rational; the 8/3 sparseness threshold is a
strict comparison, so floating point is never used.  The max-flow keeps its
augmenting path in a list, so no input meets Python's recursion limit.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .graph import GraphError, OrientedGraph


class _Dinic:
    def __init__(self, size: int):
        self.head: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, rcap: int = 0) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(rcap)

    def min_cut(self, s: int, t: int) -> tuple[int, list[int]]:
        """The max-flow value and the levels of the last residual BFS: the
        vertices with a level >= 0 are the source side of a minimum cut."""
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            level = [-1] * len(head)
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for e in head[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow, level
            it = [0] * len(head)
            # depth-first augmenting paths in the level graph, as a list of arc
            # ids: a dead end retreats one arc and advances the parent's
            # pointer; reaching t augments by the bottleneck and restarts at s
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    flow += pushed
                    path.clear()
                    u = s
                elif it[u] < len(head[u]):
                    e = head[u][it[u]]
                    v = to[e]
                    if cap[e] > 0 and level[v] == level[u] + 1:
                        path.append(e)
                        u = v
                    else:
                        it[u] += 1
                elif path:
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break


def _denser_subgraph(g: OrientedGraph, num: int, den: int) -> list[int] | None:
    """Vertices of some S with e(S)/|S| > num/den, or None if no such S exists.

    Goldberg's network: source -> v with capacity den*deg(v), v -> sink with
    capacity 2*num, and both directions of every underlying edge with
    capacity den.  A min cut strictly below den*sum(deg) witnesses S; its
    source side maximises den*e(S) - num*|S|.
    """
    net = _Dinic(g.n + 2)
    source, sink = g.n, g.n + 1
    for v, nbrs in enumerate(g.adjacency):
        net.add_edge(source, v, den * len(nbrs))
        net.add_edge(v, sink, 2 * num)
    for u, v in g.arcs:
        net.add_edge(u, v, den, den)
    flow, level = net.min_cut(source, sink)
    if flow >= 2 * den * len(g.arcs):  # den * sum(deg)
        return None
    chosen = [v for v in range(g.n) if level[v] >= 0]
    if not chosen:
        raise AssertionError("min cut below total flow must expose a subgraph")
    return chosen


def _density(g: OrientedGraph, vertices: list[int]) -> Fraction:
    inside = set(vertices)
    edge_count = sum(1 for u, v in g.arcs if u in inside and v in inside)
    return Fraction(edge_count, len(vertices))


def max_average_degree(g: OrientedGraph) -> Fraction:
    """Exact mad(g) = max over non-empty subgraphs H of 2|E(H)|/|V(H)|.

    Dinkelbach iteration over Goldberg min cuts: from the whole graph's
    density d, each cut exposes the subgraph maximising e(S) - d*|S|, which is
    denser than d whenever any subgraph is, so d rises through achieved
    densities and stops at the maximum.
    """
    if g.n < 1:
        raise GraphError("max_average_degree requires at least one vertex")
    best = _density(g, list(range(g.n)))
    while (denser := _denser_subgraph(g, best.numerator, best.denominator)) is not None:
        best = _density(g, denser)
    return 2 * best


def mad_less_than(g: OrientedGraph, bound: Fraction) -> bool:
    """Exact test mad(g) < bound with a single min-cut computation.

    Uses the threshold num/den = (a*n - 1)/(2*b*n) for bound a/b: an integer
    density e/|S| exceeds it exactly when 2b*e >= a*|S|, i.e. mad >= bound.
    """
    if g.n < 1:
        raise GraphError("mad_less_than requires at least one vertex")
    if bound <= 0:
        return False
    a, b = bound.numerator, bound.denominator
    return _denser_subgraph(g, a * g.n - 1, 2 * b * g.n) is None
