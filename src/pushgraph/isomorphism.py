"""Digraph isomorphism, push equivalence search and canonical codes.

Both searches first split the vertices of the two graphs, as one disjoint
union, from their degree classes into the coarsest equitable partition,
taking splitter cells from a queue, and refute the pair at the first cell
that holds more vertices of one graph than of the other; they backtrack only
inside cells.  One backtracking loop serves is_isomorphic and
push_equivalent: it gives each vertex of g an image in h and a push bit
(always 0 for is_isomorphic), reading h through its adjacency lists and an
arc set, never n-bit masks.  No search tries more than one order of twins.
refine_colors and canonical_code number the same partition of one graph by
plain rounds of ranking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, product
from typing import Iterable, Sequence

from .graph import Arc, GraphError, OrientedGraph

CANONICAL_SIZE_LIMIT = 16


@dataclass(frozen=True)
class IsoCertificate:
    """Arc-preserving bijection; mapping[v] is the image of source vertex v."""

    mapping: tuple[int, ...]


def is_homomorphism(g: OrientedGraph, h: OrientedGraph, mapping: tuple[int, ...]) -> bool:
    """True iff mapping sends every arc of g onto an arc of h."""
    return _maps_arcs(g.n, g.arcs, h, mapping)


def _maps_arcs(n: int, arcs: Iterable[Arc], h: OrientedGraph, mapping: tuple[int, ...]) -> bool:
    """True iff mapping gives each of n vertices an image in h and sends
    each of these arcs onto an arc of h."""
    if len(mapping) != n or any(not (0 <= w < h.n) for w in mapping):
        return False
    targets = set(h.arcs)
    return all((mapping[u], mapping[v]) in targets for u, v in arcs)


def is_isomorphism(g: OrientedGraph, h: OrientedGraph, mapping: tuple[int, ...]) -> bool:
    """True iff mapping is a bijective homomorphism whose inverse also preserves arcs."""
    if g.n != h.n or len(g.arcs) != len(h.arcs) or sorted(mapping) != list(range(g.n)):
        return False
    return is_homomorphism(g, h, mapping)


def refine_colors(g: OrientedGraph) -> tuple[int, ...]:
    """Iterated (out, in)-degree refinement; colors are renumbered canonically.

    The final coloring is an isomorphism invariant: corresponding vertices of
    isomorphic graphs receive equal colors, and colors are dense from 0.  It
    is the fixed point of a round that ranks each vertex's signature (color,
    sorted out-neighbour colors, sorted in-neighbour colors) from all-zero
    colors, so round one ranks the vertices by (out, in)-degree.

    On anti_twinned(g) the colors are c + c, where c comes from the same
    rounds on g's underlying graph, signing a vertex by (color, sorted
    neighbour colors): v -> v' is an automorphism there, so v and v' share a
    color in every round, and v's out-neighbours N+(v), N-(v)' and
    in-neighbours N-(v), N+(v)' both carry the colors of N(v).  The
    anti-twinned colors thus say nothing that c does not, and push_equivalent
    searches the base graphs with c alone.
    """
    ends, start = _directed_ends(g.n, g.arcs)
    return _refine(ends, start)


def _directed_ends(n: int, arcs: Iterable[tuple[int, int]]) -> tuple[list[list[int]], list]:
    """The ends lists and (out, in)-degree start keys of refine_colors on n
    vertices: ends[v] lists v's out-neighbours w as w and its in-neighbours w
    as w + n, and colors[w + n] = colors[w] + n, so (every member of a class
    having the same out- and in-degree) the sorted colors of ends[v] order
    the members of a class as their (out, in) tuples do."""
    ends: list[list[int]] = [[] for _ in range(n)]
    in_degree = [0] * n
    for u, v in arcs:
        ends[u].append(v)
        ends[v].append(u + n)
        in_degree[v] += 1
    return ends, [(len(e) - d, d) for e, d in zip(ends, in_degree)]


def _refine(ends: Sequence[Sequence[int]], start: Sequence) -> tuple[int, ...]:
    """The loop of refine_colors: rank the start keys, then rank each
    vertex's (color, sorted colors of ends[v]), where colors[w + n] =
    colors[w] + n, until the partition is discrete or stops changing.
    Returns the colors, dense from 0."""
    n = len(start)
    keys, classes = start, 0
    while True:
        rank = {key: c for c, key in enumerate(sorted(set(keys)))}
        colors = [rank[key] for key in keys]
        if len(rank) in (classes, n):
            return tuple(colors)
        classes = len(rank)
        color_of = (colors + [c + n for c in colors]).__getitem__
        keys = [(c, tuple(sorted(map(color_of, e)))) for c, e in zip(colors, ends)]


def _joint_partition(
    ends: Sequence[Sequence[int]], start: Sequence, half: int
) -> tuple[int, ...] | None:
    """The coarsest equitable partition of g + h (g's vertices below half)
    that refines the classes of equal start key, whose members must have
    equal (out, in)-degrees; a cell id per vertex, or None at the first cell
    with unequal numbers of g- and h-vertices.  ends is as in _refine.

    A FIFO queue holds the splitters, first every start cell but a largest.
    A splitter counts each vertex's in-neighbours in it (weight 1) and
    out-neighbours (weight n), and each cell splits by those counts: its
    untouched members keep its id, or its largest part does if none is
    untouched.  A split cell queues its new parts, smallest first, if it
    was queued, else all its parts but a largest, as counts into that part
    are counts into the cell, against which all is stable, less the others
    (Hopcroft 1971; Paige & Tarjan 1987).  Each cell is a union of final
    ones, which an isomorphism g -> h maps onto themselves, so an
    unbalanced cell refutes the pair.  Counts read a vertex's own graph
    only, so g's vertices are split as refining g alone splits them.
    """
    n = len(start)
    cells, cell_of = [set(range(n))], [0] * n
    queue: deque[int] = deque()
    waiting: set[int] = set()
    count = dict(enumerate(start))  # the start keys split the cell of all vertices
    touched = {0: list(range(n))}
    while True:
        for c, members in touched.items():
            every = len(members) == len(cells[c])
            if every and len({count[v] for v in members}) <= 1:
                continue
            groups: dict = {}
            for v in members:
                groups.setdefault(count[v], []).append(v)
            parts = sorted(groups.values(), key=len)
            if every:
                parts.pop()
            ids = []
            for part in parts:
                if 2 * len([v for v in part if v < half]) != len(part):
                    return None  # every cell so far is balanced, so the rest of c is too
                cells[c].difference_update(part)
                ids.append(len(cells))
                cells.append(set(part))
                for v in part:
                    cell_of[v] = ids[-1]
            if c not in waiting:
                ids.append(c)
                ids.remove(max(ids, key=lambda i: len(cells[i])))
            queue.extend(ids)
            waiting.update(ids)
        if not queue:
            return tuple(cell_of)
        splitter = queue.popleft()
        waiting.discard(splitter)
        count = {}
        for x in cells[splitter]:
            for e in ends[x]:
                count[e % n] = count.get(e % n, 0) + (1 if e < n else n)
        touched = {}
        for y in count:
            touched.setdefault(cell_of[y], []).append(y)


def _previous_twins(profiles: Iterable) -> list[int]:
    """For each vertex, the largest smaller vertex with an equal profile, or
    -1.  With (out, in) neighbourhoods as profiles these are twins; with
    the smaller of (out, in) and (in, out), push-twins.  Either kind is never
    adjacent, and swapping two (pushing both if reversed) is a (push-)
    automorphism that fixes every other vertex.
    """
    last: dict = {}
    prev = []
    for v, profile in enumerate(profiles):
        prev.append(last.get(profile, -1))
        last[profile] = v
    return prev


def is_isomorphic(g: OrientedGraph, h: OrientedGraph) -> IsoCertificate | None:
    """Search for an arc-preserving bijection g -> h.

    Splits g + h into cells together, refuting the pair at the first cell
    with more vertices of one graph, then backtracks over cell-compatible
    images on its own stack (so Python's recursion limit
    does not bound it), checking exact adjacency (both senses) against
    mapped neighbors.  An image is tried only once its previous twin in h
    is used: swapping two unused twins fixes the partial map, so the first
    certificate found is the one the unpruned search would find.  The
    certificate is re-verified.
    """
    found = _find_isomorphism(g, h, push=False)
    if found is not None and not is_isomorphism(g, h, found[0]):
        raise AssertionError("isomorphism search produced an invalid certificate")
    return found and IsoCertificate(found[0])


def _joint_colors(g: OrientedGraph, h: OrientedGraph, push: bool) -> tuple[int, ...] | None:
    """The _joint_partition of g + h, h's vertex w as w + n: of the
    underlying graphs with push, else of the graphs as refine_colors refines
    them.  g and h have n vertices."""
    n = g.n
    if push:
        nbrs = [*g.adjacency, *([x + n for x in a] for a in h.adjacency)]
        return _joint_partition(nbrs, list(map(len, nbrs)), n)
    ends, start = _directed_ends(2 * n, chain(g.arcs, [(u + n, v + n) for u, v in h.arcs]))
    return _joint_partition(ends, start, n)


def _find_isomorphism(
    g: OrientedGraph, h: OrientedGraph, push: bool
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The backtracking search of is_isomorphic and push_equivalent: a
    mapping of g's vertices into h and a push bit each, such that the
    mapping is an isomorphism from g, pushed at the vertices of bit 1, onto
    h.  Without push every bit is 0.  _joint_colors splits g + h into cells
    from a FIFO queue of splitter cells, and the pair is refused at the first
    cell with more vertices of one graph; otherwise an image must share its
    vertex's cell.  The g-half of that partition is the partition of g's
    underlying rounds with push (see refine_colors) and of refine_colors(g)
    without, and the search reads only cell equality and sizes, so it runs
    as on the separate colorings.
    """
    n = g.n
    if n != h.n or len(g.arcs) != len(h.arcs):
        return None
    joint = _joint_colors(g, h, push)
    if joint is None:
        return None
    if n == 0:
        return (), ()
    gcol, hcol = joint[:n], joint[n:]
    h_by_color: dict[int, list[int]] = {}
    for w in range(n):
        h_by_color.setdefault(hcol[w], []).append(w)
    h_nbrs = h.adjacency
    h_arcs = set(h.arcs)
    ends: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n)]
    for u, v in h.arcs:
        ends[u][0].append(v)
        ends[v][1].append(u)
    profiles = [(tuple(out), tuple(inn)) for out, inn in ends]
    h_twin = _previous_twins([min(p, p[::-1]) for p in profiles] if push else profiles)

    # pick order: most already-mapped neighbors first; ties by color class
    # size, then id.  A pick depends only on the earlier picks, so the order
    # is fixed before the search.  In the lazy heap of (-mapped neighbors,
    # class size, v) a vertex's newest entry is its smallest, hence current
    size = [len(h_by_color[c]) for c in gcol]
    heap = sorted((0, size[v], v) for v in range(n))  # a sorted list is a heap
    mapped_nbrs = [0] * n
    position = [-1] * n
    order: list[int] = []
    while heap:
        _, _, v = heappop(heap)
        if position[v] != -1:
            continue
        position[v] = len(order)
        order.append(v)
        for u in g.adjacency[v]:
            if position[u] == -1:
                mapped_nbrs[u] += 1
                heappush(heap, (-mapped_nbrs[u], size[u], u))
    # the neighbours u of each vertex v mapped before it: (u, 1) for an arc
    # u -> v and (u, 0) for v -> u
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in g.arcs:
        if position[u] < position[v]:
            earlier[v].append((u, 1))
        else:
            earlier[u].append((v, 0))

    mapping = [-1] * n
    bits = [0] * n
    used = [False] * n
    used_nbrs = [0] * n  # the used neighbours of each vertex of h

    def open_node(k: int) -> list:
        # the (image, bit) pairs of the k-th pick v, in ascending image: w's
        # used neighbours are exactly the images of v's mapped ones u, and the
        # pushed arc uv points into v iff sense ^ bits[u] ^ bit; the first
        # mapped neighbour fixes the bit, and with none the bit is 0
        v = order[k]
        color, back = gcol[v], earlier[v]
        if not back:
            free = [w for w in h_by_color[color] if not used[w] and not used_nbrs[w]]
            return [v, [(w, 0) for w in free if h_twin[w] == -1 or used[h_twin[w]]], 0]
        (u, sense), rest = back[0], back[1:]
        x, flip = mapping[u], sense ^ bits[u]
        cands = []
        for w in h_nbrs[x]:
            if used[w] or hcol[w] != color or used_nbrs[w] != len(back):
                continue
            t = flip ^ ((x, w) in h_arcs)
            if (t and not push) or (h_twin[w] != -1 and not used[h_twin[w]]):
                continue
            for u, sense in rest:
                y = mapping[u]
                if ((y, w) if sense ^ bits[u] ^ t else (w, y)) not in h_arcs:
                    break
            else:
                cands.append((w, t))
        cands.sort()
        return [v, cands, 0]

    # one [vertex, candidates, next index] frame per assigned or open vertex
    stack = [open_node(0)]
    while True:
        frame = stack[-1]
        v, cands, i = frame
        w = mapping[v]
        if w != -1:  # undo the candidate tried last at this node
            mapping[v] = -1
            used[w] = False
            for x in h_nbrs[w]:
                used_nbrs[x] -= 1
        if i == len(cands):
            stack.pop()
            if not stack:
                return None
            continue
        w, bits[v] = cands[i]
        frame[2] = i + 1
        mapping[v] = w
        used[w] = True
        for x in h_nbrs[w]:
            used_nbrs[x] += 1
        if len(stack) == n:
            return tuple(mapping), tuple(bits)
        stack.append(open_node(len(stack)))


def canonical_code(g: OrientedGraph) -> bytes:
    """Canonical byte string: equal codes iff the graphs are isomorphic.

    The minimum layered adjacency string over every vertex order that lists
    refined colors in nondecreasing order: the layer of the k-th vertex v is
    a 1 followed by two bits per earlier vertex u, oldest first (u -> v,
    then v -> u).  If every color is distinct there is one such order;
    otherwise a depth-first search over the orders finds the minimum, with
    each unplaced vertex carrying its layer as if it came next (two bits
    longer per placed vertex).  The search is exact:

    - A branch is cut only when its prefix already exceeds the best complete
      string, so every string left unexplored is at least the minimum.
    - A vertex is placed only after its previous twin (same out- and
      in-neighbourhood).  Any permutation of a twin class is an automorphism
      that fixes every other vertex, so the unplaced twins of any completion
      of a prefix can be sorted without changing its string: below every
      prefix the twin-ordered minimum is the minimum over all completions.
    - A leaf whose string equals the best one gives an automorphism, the
      map from the best order to the leaf's order, position by position.
      An automorphism that fixes a prefix point by point and maps a child
      c to c' maps the completions below c onto those below c', with the
      same strings; by the point above, the searched (twin-ordered) minima
      below both are those minima.  So a child in the orbit of an explored
      sibling, under the automorphisms found so far that fix the prefix, is
      skipped.  The leaf's own branch is such a child at the depth where its
      order leaves the best one, so the search returns to that depth at once
      (McKay & Piperno, "Practical graph isomorphism, II", 2014).
    """
    return _code(g.n, g.arcs)


def _code(n: int, arcs: Sequence[tuple[int, int]]) -> bytes:
    """canonical_code of the graph on n vertices with these arcs, which must
    form an oriented graph; n over CANONICAL_SIZE_LIMIT is refused.  Twins
    have equal rows of adj, which hold both of their neighbourhoods."""
    if n > CANONICAL_SIZE_LIMIT:
        raise GraphError(f"canonical_code limit exceeded: n={n} > {CANONICAL_SIZE_LIMIT}")
    adj = [[0] * n for _ in range(n)]  # adj[u][v]: 2 for u -> v, 1 for v -> u
    for u, v in arcs:
        adj[u][v], adj[v][u] = 2, 1
    colors = _refine(*_directed_ends(n, arcs))
    if max(colors, default=-1) == n - 1:  # discrete colors: one order to try
        return _layer_string(adj, sorted(range(n), key=colors.__getitem__))
    twin = _previous_twins(map(tuple, adj))
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    cell_at = [cells[c] for c in sorted(colors)]  # the class the k-th vertex comes from

    order: list[int] = []
    layers: list[int] = []
    taken = [False] * n
    best: list[int] = []
    best_order: list[int] = []
    autos: list[list[int]] = []
    back_to = n  # after an automorphism, the depth the search returns to

    def dfs(k: int, partial: list[int], tied: bool) -> bool:
        # k < n vertices are placed; partial[v]: v's layer if it came next;
        # tied: layers == best[:k].  Returns whether best was lowered below.
        nonlocal best, best_order, back_to
        cands = [
            (partial[v], v) for v in cell_at[k] if not taken[v] and (twin[v] == -1 or taken[twin[v]])
        ]
        cands.sort()
        lowered = False
        explored: list[int] = []
        orbit: list[int] = []  # orbit labels under the automorphisms fixing order
        seen = 0  # the automorphisms merged into orbit so far
        for layer, v in cands:
            if tied and layer > best[k]:
                break
            if explored and len(autos) > seen:
                orbit = orbit or list(range(n))
                for auto in autos[seen:]:
                    if all(auto[u] == u for u in order):
                        for x, y in enumerate(auto):
                            if orbit[x] != orbit[y]:
                                old = orbit[y]
                                orbit = [orbit[x] if c == old else c for c in orbit]
                seen = len(autos)
            if orbit and orbit[v] in {orbit[c] for c in explored}:
                continue
            layers.append(layer)
            taken[v] = True
            order.append(v)
            if k + 1 < n:
                if dfs(k + 1, [p << 2 | a for p, a in zip(partial, adj[v])], tied and layer == best[k]):
                    tied = lowered = True
            elif tied and layer == best[k]:  # a leaf with the best string
                auto = [0] * n
                for x, y in zip(best_order, order):
                    auto[x] = y
                autos.append(auto)
                back_to = next(i for i, (x, y) in enumerate(zip(best_order, order)) if x != y)
            else:  # a leaf below the best string
                best, best_order = layers.copy(), order.copy()
                tied = lowered = True
            order.pop()
            taken[v] = False
            layers.pop()
            if back_to < k:
                return lowered
            back_to = n
            explored.append(v)
        return lowered

    dfs(0, [1] * n, False)
    return (f"{n}|" + ",".join(map(str, best))).encode()


def _layer_string(adj: list[list[int]], order: list[int]) -> bytes:
    """The code of a vertex order: n, then each vertex's layer, a 1 and then
    adj[u][v] for every earlier vertex u, oldest first, two bits each."""
    layers = []
    partial = [1] * len(order)  # partial[v]: v's layer if it came next
    for v in order:
        layers.append(partial[v])
        partial = [p << 2 | a for p, a in zip(partial, adj[v])]
    return (f"{len(order)}|" + ",".join(map(str, layers))).encode()


def _augment(
    classes: Iterable[OrientedGraph], n: int, alternatives: Sequence[tuple]
) -> tuple[OrientedGraph, ...]:
    """The classes on n vertices from those on n - 1, in code order: each
    tuple of alternatives offers the arcs (None: no arc) between vertex n - 1
    and one earlier vertex; extensions are tried in product order and the
    first of each canonical code is kept (McKay, J. Algorithms 1998); only
    a kept extension is built as a graph."""
    found: dict[bytes, OrientedGraph] = {}
    for base in classes:
        for choice in product(*alternatives):
            arcs = base.arcs + tuple(arc for arc in choice if arc is not None)
            code = _code(n, arcs)
            if code not in found:
                found[code] = OrientedGraph(n, arcs)
    return tuple(found[code] for code in sorted(found))
