"""Exact maximum average degree: a 2-core peel, then Dinkelbach iteration
over Goldberg min cuts.

The min cut runs on the 2-core of the underlying graph only, which is exact:
if S has density e/|S| >= 1 and v in S has degree d <= 1 inside S, then
(e - d)/(|S| - 1) >= e/|S|, since that holds exactly when e >= d*|S|.  So
when g has a cycle (density 1), some densest subgraph lies in its 2-core.
When the 2-core is empty g is a forest, and mad(g) = 2(k - 1)/k for the
order k of its largest tree, with no min cut at all.

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


def _peel(g: OrientedGraph) -> tuple[OrientedGraph, Fraction]:
    """The 2-core of g's underlying graph, and the mad of the largest tree
    peeled whole (0 if none): mad(g) is this value when the core is empty,
    and the core's mad otherwise.

    One O(n + m) peel (Batagelj & Zaversnik 2003) deletes vertices of degree
    <= 1 until none is left; each deleted vertex hands the vertices it carries
    to its last live neighbour, so a tree's last vertex carries the whole tree.
    """
    adj = g.adjacency
    degree = [len(nbrs) for nbrs in adj]
    carried = [1] * g.n
    alive = [True] * g.n
    stack = [v for v in range(g.n) if degree[v] <= 1]
    tree = 0
    while stack:
        v = stack.pop()
        alive[v] = False
        u = next((u for u in adj[v] if alive[u]), None)
        if u is None:
            tree = max(tree, carried[v])
            continue
        carried[u] += carried[v]
        degree[u] -= 1
        if degree[u] == 1:
            stack.append(u)
    core, _ = g.induced(v for v in range(g.n) if alive[v])
    return core, Fraction(2 * (tree - 1), tree) if tree else Fraction(0)


def max_average_degree(g: OrientedGraph) -> Fraction:
    """Exact mad(g) = max over non-empty subgraphs H of 2|E(H)|/|V(H)|.

    Dinkelbach iteration over Goldberg min cuts on the 2-core: from the core's
    density d, each cut exposes the subgraph maximising e(S) - d*|S|, which is
    denser than d whenever any subgraph is, so d rises through achieved
    densities and stops at the maximum.
    """
    if g.n < 1:
        raise GraphError("max_average_degree requires at least one vertex")
    core, forest = _peel(g)
    if core.n == 0:
        return forest
    best = _density(core, list(range(core.n)))
    while (denser := _denser_subgraph(core, best.numerator, best.denominator)) is not None:
        best = _density(core, denser)
    return 2 * best


def mad_less_than(g: OrientedGraph, bound: Fraction) -> bool:
    """Exact test mad(g) < bound with a single min-cut computation.

    Uses the threshold num/den = (a*n - 1)/(2*b*n) for bound a/b on the
    n-vertex 2-core: an integer density e/|S| with |S| <= n exceeds it exactly
    when 2b*e >= a*|S|, i.e. mad >= bound.  A forest needs no cut.
    """
    if g.n < 1:
        raise GraphError("mad_less_than requires at least one vertex")
    if bound <= 0:
        return False
    core, forest = _peel(g)
    if core.n == 0:
        return forest < bound
    a, b = bound.numerator, bound.denominator
    return _denser_subgraph(core, a * core.n - 1, 2 * b * core.n) is None
