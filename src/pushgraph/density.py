"""Exact maximum average degree: a 2-core peel, then Dinkelbach iteration
over Goldberg min cuts on the core's branch graph.

The min cut runs on the 2-core of the underlying graph only, which is exact:
if S has density e/|S| >= 1 and v in S has degree d <= 1 inside S, then
(e - d)/(|S| - 1) >= e/|S|, since that holds exactly when e >= d*|S|.  So
when g has a cycle (density 1), some densest subgraph lies in its 2-core.
When the 2-core is empty g is a forest, and mad(g) = 2(k - 1)/k for the
order k of its largest tree, with no min cut at all.

A sparse core is mostly chains of degree-2 vertices, so the cut sees only
its branch vertices (core degree >= 3).  A thread is a maximal path through
degree-2 core vertices from one branch vertex to another, or back to the
same one; with L interior vertices it becomes one edge of weight
den*(L+1) - num*L in the cut that asks for an S with den*e(S) - num*|S| > 0,
and is dropped unless that weight is positive.  The contraction is exact
when num >= den: in den*e(S) - num*|S| a whole thread adds its weight, any
proper part of one adds at most (den - num)*L' <= 0 for its L' interior
vertices in S, and a cycle with no branch vertex adds (den - num)*L <= 0,
so some optimal S takes each thread whole or not at all.  Both callers keep
num >= den: the core has minimum degree 2, so its density, where Dinkelbach
starts, is at least 1; and mad_less_than answers a bound <= 2 without a cut.

All arithmetic is integral or rational; the 8/3 sparseness threshold is a
strict comparison, so floating point is never used.  The max-flow keeps its
augmenting path in a list, so no input meets Python's recursion limit.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .graph import GraphError, OrientedGraph

# a thread: the positions of its two ends among the branch vertices, and its
# interior vertices in order from the first end
_Thread = tuple[int, int, list[int]]


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


def _denser_subgraph(
    branches: list[int], threads: list[_Thread], num: int, den: int
) -> list[int] | None:
    """Vertices of some S with e(S)/|S| > num/den, or None if no such S
    exists, for the core with these branch vertices and threads and for
    num >= den.

    Goldberg's network on the branch vertices: each thread whose weight
    w = den*(L+1) - num*L is positive adds w to the source capacity of each
    end, so 2w for a thread back to its start, and between two ends it is
    an edge of capacity w in both directions; every branch vertex has
    capacity 2*num to the sink.  A min cut strictly below
    the total source capacity witnesses S, its source side plus the
    interiors of the kept threads whose two ends it holds, which maximises
    den*e(S) - num*|S|.
    """
    k = len(branches)
    net = _Dinic(k + 2)
    source, sink = k, k + 1
    weighted = [0] * k
    kept: list[_Thread] = []
    for a, b, interior in threads:
        w = den * (len(interior) + 1) - num * len(interior)
        if w <= 0:
            continue
        kept.append((a, b, interior))
        weighted[a] += w
        weighted[b] += w
        if a != b:
            net.add_edge(a, b, w, w)
    for i, capacity in enumerate(weighted):
        net.add_edge(source, i, capacity)
        net.add_edge(i, sink, 2 * num)
    flow, level = net.min_cut(source, sink)
    if flow >= sum(weighted):
        return None
    chosen = [v for v, lv in zip(branches, level) if lv >= 0]
    if not chosen:
        raise AssertionError("min cut below total flow must expose a subgraph")
    for a, b, interior in kept:
        if level[a] >= 0 and level[b] >= 0:
            chosen += interior
    return chosen


def _density(g: OrientedGraph, vertices: list[int]) -> Fraction:
    inside = set(vertices)
    adj = g.adjacency
    twice = sum(1 for v in vertices for u in adj[v] if u in inside)
    return Fraction(twice, 2 * len(vertices))


def _peel(g: OrientedGraph) -> tuple[list[int], list[int], list[_Thread], Fraction]:
    """The 2-core of g's underlying graph as its vertices, its branch vertices
    (core degree >= 3) and its threads; and the mad of the largest tree peeled
    whole (0 if none): mad(g) is this value when the core is empty, and the
    core's mad otherwise.

    One O(n + m) peel (Batagelj & Zaversnik 2003) deletes vertices of degree
    <= 1 until none is left; each deleted vertex hands the vertices it carries
    to its last live neighbour, so a tree's last vertex carries the whole tree.
    Then one walk from each branch vertex along each of its core edges lists
    every thread once: one with no interior from its smaller end, and any
    other from the end that reaches its interior first.
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
    core = [v for v in range(g.n) if alive[v]]
    branches = [v for v in core if degree[v] >= 3]
    position = [-1] * g.n
    for i, v in enumerate(branches):
        position[v] = i
    walked = [False] * g.n
    threads: list[_Thread] = []
    for i, a in enumerate(branches):
        for x in adj[a]:
            if not alive[x] or walked[x]:
                continue
            if position[x] >= 0:
                if a < x:
                    threads.append((i, position[x], []))
                continue
            interior = []
            prev = a
            while position[x] < 0:
                walked[x] = True
                interior.append(x)
                y, z = (u for u in adj[x] if alive[u])
                prev, x = x, z if y == prev else y
            threads.append((i, position[x], interior))
    forest = Fraction(2 * (tree - 1), tree) if tree else Fraction(0)
    return core, branches, threads, forest


def max_average_degree(g: OrientedGraph) -> Fraction:
    """Exact mad(g) = max over non-empty subgraphs H of 2|E(H)|/|V(H)|.

    Dinkelbach iteration over Goldberg min cuts on the 2-core's branch graph:
    from the core's density d, each cut exposes the subgraph maximising
    e(S) - d*|S|, which is denser than d whenever any subgraph is, so d rises
    through achieved densities and stops at the maximum.
    """
    if g.n < 1:
        raise GraphError("max_average_degree requires at least one vertex")
    core, branches, threads, forest = _peel(g)
    if not core:
        return forest
    best = _density(g, core)
    while (denser := _denser_subgraph(branches, threads, best.numerator, best.denominator)) is not None:
        density = _density(g, denser)
        if density <= best:
            raise AssertionError("min cut exposed a subgraph that is not denser")
        best = density
    return 2 * best


def mad_less_than(g: OrientedGraph, bound: Fraction) -> bool:
    """Exact test mad(g) < bound with at most one min-cut computation.

    A non-empty 2-core has mad >= 2, so a bound <= 2 needs no cut.  Above
    2 it uses the threshold num/den = (a*n - 1)/(2*b*n) for bound a/b on
    the n-vertex 2-core, which has num >= den: an integer density e/|S|
    with |S| <= n exceeds it exactly when 2b*e >= a*|S|, i.e. mad >= bound.
    A forest needs no cut.
    """
    if g.n < 1:
        raise GraphError("mad_less_than requires at least one vertex")
    if bound <= 0:
        return False
    core, branches, threads, forest = _peel(g)
    if not core:
        return forest < bound
    if bound <= 2:
        return False
    a, b, n = bound.numerator, bound.denominator, len(core)
    return _denser_subgraph(branches, threads, a * n - 1, 2 * b * n) is None
