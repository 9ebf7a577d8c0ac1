"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive (permutations, subset enumeration,
full mapping enumeration) and shares no code with the implementation paths
it validates, except chromatic_by_tournaments, which runs the package's
solver once per tournament class where the package runs one quotient search
per order.  `time_limit` guards tests whose regression would be a hang.
"""

from __future__ import annotations

import random
import signal
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product

from pushgraph import OrientedGraph
from pushgraph.hom import ChromaticResult, enumerate_tournaments, find_hom, find_push_hom
from pushgraph.search import _Tracker


def random_oriented_graph(rng: random.Random, n: int, p: float = 0.4) -> OrientedGraph:
    arcs = []
    for u, v in combinations(range(n), 2):
        roll = rng.random()
        if roll < p / 2:
            arcs.append((u, v))
        elif roll < p:
            arcs.append((v, u))
    return OrientedGraph(n, tuple(arcs))


def random_regular(n: int, d: int, seed: int) -> OrientedGraph:
    """A seeded random d-regular oriented graph on n vertices (n * d even):
    the configuration model, resampled until it has no loop or repeated
    edge, with each edge oriented by a fair coin."""
    rng = random.Random(seed)
    points = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])}
        if len(edges) * 2 == n * d and all(u != v for u, v in edges):
            return OrientedGraph(
                n, tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(edges))
            )


def underlying_edges(g: OrientedGraph) -> list[tuple[int, int]]:
    """Underlying simple edges as sorted (min, max) pairs."""
    return sorted((min(u, v), max(u, v)) for u, v in g.arcs)


def girth_by_edge_removal(g: OrientedGraph):
    """min over edges of 1 + shortest path between its endpoints without it."""
    edges = underlying_edges(g)
    best = float("inf")
    for skip in edges:
        adj = {v: set() for v in range(g.n)}
        for e in edges:
            if e == skip:
                continue
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
        start, goal = skip
        dist = {start: 0}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if goal in dist:
            best = min(best, dist[goal] + 1)
    return best


def mad_by_subset_enumeration(g: OrientedGraph) -> Fraction:
    edges = underlying_edges(g)
    edge_masks = [(1 << u) | (1 << v) for u, v in edges]
    best = Fraction(0)
    for subset in range(1, 1 << g.n):
        inside = sum(1 for m in edge_masks if m & subset == m)
        best = max(best, Fraction(2 * inside, subset.bit_count()))
    return best


def iso_by_permutations(g: OrientedGraph, h: OrientedGraph):
    if g.n != h.n or len(g.arcs) != len(h.arcs):
        return None
    target = set(h.arcs)
    for perm in permutations(range(g.n)):
        if {(perm[u], perm[v]) for u, v in g.arcs} == target:
            return perm
    return None


def refine_colors_by_rounds(g: OrientedGraph) -> tuple[int, ...]:
    """Colour refinement that re-signs every vertex in every round: each
    round ranks the signatures (colour, sorted out-colours, sorted
    in-colours) until the colours stop changing."""
    outs = [[v for u, v in g.arcs if u == x] for x in range(g.n)]
    ins = [[u for u, v in g.arcs if v == x] for x in range(g.n)]
    colors = [0] * g.n
    while True:
        signature = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in outs[v])),
                tuple(sorted(colors[w] for w in ins[v])),
            )
            for v in range(g.n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        new_colors = [palette[sig] for sig in signature]
        if new_colors == colors:
            return tuple(colors)
        colors = new_colors


def underlying_colors_by_rounds(g: OrientedGraph) -> tuple[int, ...]:
    """Colour refinement of the underlying graph, re-signing every vertex in
    every round: each round ranks the signatures (colour, sorted neighbour
    colours) until the colours stop changing."""
    nbrs = [[w for arc in g.arcs if x in arc for w in arc if w != x] for x in range(g.n)]
    colors = [0] * g.n
    while True:
        signature = [(colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(g.n)]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        new_colors = [palette[sig] for sig in signature]
        if new_colors == colors:
            return tuple(colors)
        colors = new_colors


def canonical_code_by_layers(g: OrientedGraph) -> bytes:
    """The minimum layered adjacency string over every colour-sorted vertex
    order, by branch and bound with exact prefix pruning: each candidate's
    layer is rebuilt from the whole prefix, and a vertex is placed only
    after its previous twin (same out- and in-neighbourhood)."""
    n = g.n
    if n == 0:
        return b"0|"
    colors = refine_colors_by_rounds(g)
    out = [sum(1 << v for u, v in g.arcs if u == x) for x in range(n)]
    inn = [sum(1 << u for u, v in g.arcs if v == x) for x in range(n)]
    twin = [max((u for u in range(v) if (out[u], inn[u]) == (out[v], inn[v])), default=-1)
            for v in range(n)]
    order: list[int] = []
    layers: list[int] = []
    taken = [False] * n
    best = None

    def layer_of(v: int) -> int:
        bits = 1  # sentinel keeps leading zero-bits significant
        for u in order:
            bits = bits << 2 | (out[u] >> v & 1) << 1 | (inn[u] >> v & 1)
        return bits

    def dfs() -> None:
        nonlocal best
        k = len(order)
        if k == n:
            if best is None or layers < best:
                best = layers.copy()
            return
        remaining = [v for v in range(n) if not taken[v]]
        min_color = min(colors[v] for v in remaining)
        cands = sorted(
            (layer_of(v), v)
            for v in remaining
            if colors[v] == min_color and (twin[v] == -1 or taken[twin[v]])
        )
        for layer, v in cands:
            if best is not None and layers == best[:k] and layer > best[k]:
                break
            layers.append(layer)
            taken[v] = True
            order.append(v)
            dfs()
            order.pop()
            taken[v] = False
            layers.pop()

    dfs()
    return (f"{n}|" + ",".join(map(str, best))).encode()


def disjoint_union(graphs) -> OrientedGraph:
    """Disjoint union with vertex ids shifted in list order."""
    arcs = []
    offset = 0
    for g in graphs:
        arcs.extend((u + offset, v + offset) for u, v in g.arcs)
        offset += g.n
    return OrientedGraph(offset, tuple(arcs))


def spans_uc4(g: OrientedGraph, x: int, y: int) -> bool:
    """True iff some 4-cycle x-z-y-w of g has an odd number of arcs against
    its traversal, that is, is the one-reversed-arc 4-cycle up to pushing."""
    arcs = set(g.arcs)
    common = [
        z for z in range(g.n)
        if all((a, z) in arcs or (z, a) in arcs for a in (x, y))
    ]
    for z, w in permutations(common, 2):
        backward = ((z, x) in arcs) + ((y, z) in arcs) + ((w, y) in arcs) + ((x, w) in arcs)
        if backward % 2 == 1:
            return True
    return False


def emit_push_vector(vertices) -> str:
    """The push-vector file format, vertices sorted."""
    ordered = sorted(set(vertices))
    return "\n".join([f"push {len(ordered)}"] + [f"v {v}" for v in ordered]) + "\n"


def reduction_by_scan(g: OrientedGraph, left) -> tuple | None:
    """The reducible configuration of g's subgraph on the vertex set left
    that the colourer deletes next, found by a scan from degrees alone:
    (kind position, squares, anchors, senses), or None if there is none.

    Kinds in order: (i) degree at most 1; (ii) degree 2 beside a degree-2
    vertex; (iii) degree 3 beside two degree-2 vertices.  The first kind
    with a centre, at its smallest vertex, wins; a centre's degree-2
    partners are its smallest ones.  Squares and anchors, with each sense 1
    when the arc goes the way written, are:
    (i) squares (v,), anchors its neighbour if any, arc anchor -> v;
    (ii) squares (v, s), anchors (v's other neighbour a, s's other
    neighbour b), arcs a -> v -> s -> b;
    (iii) squares (s1, s2, v), anchors (s1's other neighbour a1, s2's a2,
    v's third neighbour a3), arcs a1 -> s1 -> v, a2 -> s2 -> v, a3 -> v.
    """
    arcs = set(g.arcs)
    nbrs = {v: set() for v in left}
    for u, v in g.arcs:
        if u in nbrs and v in nbrs:
            nbrs[u].add(v)
            nbrs[v].add(u)

    def other(x, y):  # the neighbour of a degree-2 vertex x besides y
        (z,) = nbrs[x] - {y}
        return z

    for kind in range(3):
        for v in sorted(nbrs):
            twos = sorted(w for w in nbrs[v] if len(nbrs[w]) == 2)
            if kind == 0 and len(nbrs[v]) <= 1:
                anchors = tuple(nbrs[v])
                paths = [(*anchors, v)]
                squares = (v,)
            elif kind == 1 and len(nbrs[v]) == 2 and twos:
                s = twos[0]
                anchors = (other(v, s), other(s, v))
                paths = [(anchors[0], v, s, anchors[1])]
                squares = (v, s)
            elif kind == 2 and len(nbrs[v]) == 3 and len(twos) >= 2:
                s1, s2 = twos[:2]
                (a3,) = nbrs[v] - {s1, s2}
                anchors = (other(s1, v), other(s2, v), a3)
                paths = [(anchors[0], s1, v), (anchors[1], s2, v), (a3, v)]
                squares = (s1, s2, v)
            else:
                continue
            senses = tuple(int((x, y) in arcs) for path in paths for x, y in zip(path, path[1:]))
            return kind, squares, anchors, senses
    return None


def hom_by_enumeration(g: OrientedGraph, h: OrientedGraph):
    if g.n == 0:
        return ()
    if h.n == 0:
        return None
    for image in product(range(h.n), repeat=g.n):
        if all(h.has_arc(image[u], image[v]) for u, v in g.arcs):
            return image
    return None


def push_by_hand(g: OrientedGraph, pushed) -> OrientedGraph:
    pushed = set(pushed)
    arcs = []
    for u, v in g.arcs:
        if (u in pushed) + (v in pushed) == 1:
            arcs.append((v, u))
        else:
            arcs.append((u, v))
    return OrientedGraph(g.n, tuple(arcs))


def maps_arcs(g: OrientedGraph, h: OrientedGraph, mapping) -> bool:
    """True iff mapping names a vertex of h for each vertex of g and sends
    every arc of g onto an arc of h, looked up arc by arc."""
    if len(mapping) != g.n or not all(0 <= w < h.n for w in mapping):
        return False
    return all((mapping[u], mapping[v]) in h.arcs for u, v in g.arcs)


def iso_by_arcs(g: OrientedGraph, h: OrientedGraph, mapping) -> bool:
    """True iff mapping is a bijection of g's vertices onto h's that sends
    the arcs of g onto exactly the arcs of h."""
    return (
        g.n == h.n
        and sorted(mapping) == list(range(h.n))
        and sorted((mapping[u], mapping[v]) for u, v in g.arcs) == sorted(h.arcs)
    )


def anti_twinned_by_hand(g: OrientedGraph) -> OrientedGraph:
    """The anti-twinned graph pair by pair: vertex v + n is v', and x -> y
    iff, for their base vertices a and b, a -> b in g when x and y lie on the
    same side, and b -> a when they do not."""
    n, arcs = g.n, set(g.arcs)
    return OrientedGraph(2 * n, tuple(
        (x, y)
        for x in range(2 * n)
        for y in range(2 * n)
        if ((x % n, y % n) if (x < n) == (y < n) else (y % n, x % n)) in arcs
    ))


def splits_by_hand(g: OrientedGraph, one, two) -> bool:
    """True iff one and two split g's vertices into equal halves and g is the
    anti-twinned graph of its subgraph on one, with two[i] as one[i]'."""
    k = len(one)
    if len(two) != k or sorted([*one, *two]) != list(range(g.n)):
        return False
    half = OrientedGraph(k, tuple(
        (one.index(u), one.index(v)) for u, v in g.arcs if u in one and v in one
    ))
    return iso_by_arcs(anti_twinned_by_hand(half), g, [*one, *two])


def push_hom_by_double_enumeration(g: OrientedGraph, h: OrientedGraph):
    """All push vectors times all mappings; returns a witness or None."""
    for bits in range(1 << g.n):
        vector = frozenset(v for v in range(g.n) if bits >> v & 1)
        presented = push_by_hand(g, vector)
        image = hom_by_enumeration(presented, h)
        if image is not None:
            return vector, image
    return None


def all_push_homs(g: OrientedGraph, h: OrientedGraph):
    """Every (push vector, mapping) pair that works; for soundness checks."""
    found = []
    for bits in range(1 << g.n):
        vector = frozenset(v for v in range(g.n) if bits >> v & 1)
        presented = push_by_hand(g, vector)
        for image in product(range(h.n), repeat=g.n):
            if all(h.has_arc(image[u], image[v]) for u, v in presented.arcs):
                found.append((vector, image))
    return found


def chromatic_by_tournaments(g: OrientedGraph, max_k: int, pushing: bool, budget=None):
    """The chromatic search that tries every tournament class: for k = 0, 1,
    ..., run the solver into each tournament of order k, in
    enumerate_tournaments order, and stop at the first hit; all runs share
    one budget of nodes."""
    tracker = _Tracker(budget)
    search = find_push_hom if pushing else find_hom
    for k in range(max_k + 1):
        for target in enumerate_tournaments(k):
            hit = search(g, target, _tracker=tracker).hit
            if hit is not None:
                return ChromaticResult(k, target, hit, k, True, tracker.nodes, tracker.seconds)
            if tracker.exhausted:
                return ChromaticResult(None, None, None, k, False, tracker.nodes, tracker.seconds)
    return ChromaticResult(None, None, None, max_k + 1, True, tracker.nodes, tracker.seconds)


class _Overrun(BaseException):
    """The alarm inside a `time_limit` block; a BaseException, so no handler
    in the code under test can swallow it."""


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError from the block once `seconds` of wall time pass.

    The TimeoutError is raised here, not in the signal handler, and drops
    the interrupted frames: CPython can run the handler at a jump that has
    no line number, and pytest, rendering a traceback through such a frame,
    stops the whole session with INTERNALERROR instead of failing the test.
    """

    def ring(signum, frame):
        raise _Overrun

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Overrun:
        raise TimeoutError(f"still running after {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
