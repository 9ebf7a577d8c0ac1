"""Digraph isomorphism and canonical codes for desk-scale oriented graphs.

Both routines run degree-pair color refinement first and backtrack only
inside refined color classes, and never try more than one order of
structural twins (vertices with equal out- and in-neighbourhoods), which
keeps exhaustive-quality answers fast at the sizes this package works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .graph import GraphError, OrientedGraph

CANONICAL_SIZE_LIMIT = 16


@dataclass(frozen=True)
class IsoCertificate:
    """Arc-preserving bijection; mapping[v] is the image of source vertex v."""

    mapping: tuple[int, ...]


def is_homomorphism(g: OrientedGraph, h: OrientedGraph, mapping: tuple[int, ...]) -> bool:
    """True iff mapping sends every arc of g onto an arc of h."""
    if len(mapping) != g.n:
        return False
    if any(not (0 <= w < h.n) for w in mapping):
        return False
    out = h.out_masks
    return all(out[mapping[u]] >> mapping[v] & 1 for u, v in g.arcs)


def is_isomorphism(g: OrientedGraph, h: OrientedGraph, mapping: tuple[int, ...]) -> bool:
    """True iff mapping is a bijective homomorphism whose inverse also preserves arcs."""
    if g.n != h.n or len(g.arcs) != len(h.arcs):
        return False
    if sorted(mapping) != list(range(g.n)):
        return False
    return is_homomorphism(g, h, mapping)


def refine_colors(g: OrientedGraph) -> tuple[int, ...]:
    """Iterated (out, in)-degree refinement; colors are renumbered canonically.

    The final coloring is an isomorphism invariant: corresponding vertices of
    isomorphic graphs receive equal colors, and colors are dense from 0.

    The colors are the fixed point of a round that gives each vertex the rank
    of its signature (color, sorted out-neighbour colors, sorted in-neighbour
    colors), starting from all-zero colors.  The old color is the primary
    key, so a class that does not split keeps its place in the order, and a
    class that splits takes consecutive places ordered by its members' (out,
    in) color tuples; the first round's tuples are all zeros and sort as
    (out-degree, in-degree).  Here a class is numbered by its first place
    rather than its rank: the two numberings are in the same order, so every
    tuple comparison and every split is the same, and a split renumbers only
    the members of its later parts.  A class can split in the next round
    only if one of its members has an in- or out-neighbour whose number
    changed in this one: otherwise its members' neighbour tuples are the
    same as in this round, where they were equal.  Each round therefore
    signs only the members of those dirty classes, reading arc lists, and
    the ranks of the places at the fixed point are the colors that signing
    every vertex in every round gives.

    On anti_twinned(g) the colors are c + c, where c = _underlying_colors(g)
    refines g's underlying graph.  v -> v' is an automorphism there, so v
    and v' share a color in every round; and v's out-neighbours N+(v) and
    N-(v)' and its in-neighbours N-(v) and N+(v)' carry the colors of N(v)
    twice, so both of v's neighbour color lists are those of N(v).  Each
    class S + S' then starts at twice the first place of S and splits as S
    does, so push_equivalent never refines an anti-twinned graph.
    """
    n = g.n
    # ends[v] lists v's out-neighbours w as w and its in-neighbours w as
    # w + n, and colors[w + n] = colors[w] + n: every member of a class has
    # the same out- and in-degree, so the sorted colors of ends[v] order the
    # members of a class as their (out, in) tuples do
    ends: list[list[int]] = [[] for _ in range(n)]
    in_degree = [0] * n
    for u, v in g.arcs:
        ends[u].append(v)
        ends[v].append(u + n)
        in_degree[v] += 1
    return _refine(g, ends, [(len(ends[v]) - in_degree[v], in_degree[v]) for v in range(n)])


def _underlying_colors(g: OrientedGraph) -> tuple[int, ...]:
    """Refinement of g's underlying graph from its degree classes, signing a
    vertex by the sorted colors of its neighbours; refine_colors says why
    refine_colors(anti_twinned(g)) is these colors twice over."""
    return _refine(g, g.adjacency, list(map(len, g.adjacency)))


def _refine(g: OrientedGraph, ends: Sequence[Sequence[int]], start: list) -> tuple[int, ...]:
    """The loop of refine_colors: vertices start in classes of equal start
    key, in key order; a member of a class is signed by the sorted colors of
    ends[v], where colors[w + n] = colors[w] + n, and a class is signed only
    when a neighbour of one of its members moved in the last round."""
    n = g.n
    by_key: dict = {}
    for v, key in enumerate(start):
        by_key.setdefault(key, []).append(v)
    colors = [0] * (2 * n)  # the first place of each vertex's class
    cells: dict[int, list[int]] = {}  # first place -> members
    place = 0
    for key in sorted(by_key):
        cells[place] = members = by_key[key]
        for v in members:
            colors[v] = place
            colors[v + n] = place + n
        place += len(members)
    moved = [v for v in range(n) if colors[v]]
    nbrs = g.adjacency
    color_of = colors.__getitem__
    while moved:
        splits = []
        for place in {colors[u] for v in moved for u in nbrs[v]}:
            members = cells[place]
            if len(members) < 2:
                continue
            parts: dict[tuple, list[int]] = {}
            for v in members:
                key = tuple(sorted(map(color_of, ends[v])))
                parts.setdefault(key, []).append(v)
            if len(parts) > 1:
                splits.append((place, [parts[key] for key in sorted(parts)]))
        moved = []
        for place, parts in splits:
            cells[place] = parts[0]
            for before, members in zip(parts, parts[1:]):
                place += len(before)
                cells[place] = members
                for v in members:
                    colors[v] = place
                    colors[v + n] = place + n
                moved += members
    rank = {place: c for c, place in enumerate(sorted(cells))}
    return tuple(rank[place] for place in colors[:n])


def _previous_twins(g: OrientedGraph) -> list[int]:
    """For each vertex, the largest smaller vertex with the same (out, in)
    neighbourhood, or -1.

    Such twins are never adjacent, and swapping two of them is an
    automorphism that fixes every other vertex.
    """
    last: dict[tuple[int, int], int] = {}
    prev = [-1] * g.n
    for v, profile in enumerate(zip(g.out_masks, g.in_masks)):
        prev[v] = last.get(profile, -1)
        last[profile] = v
    return prev


def is_isomorphic(g: OrientedGraph, h: OrientedGraph) -> IsoCertificate | None:
    """Search for an arc-preserving bijection g -> h.

    Prunes with refined color classes, then backtracks over color-compatible
    images, checking exact adjacency (both senses) against mapped neighbors.
    An image w of h is tried only once its previous twin in h (same out- and
    in-neighbourhood) is used: the swap of two unused twins fixes the partial
    map, so their subtrees succeed or fail together, and the first
    certificate found is the one the unpruned search would find.  The search
    keeps its own stack, so its depth is not bounded by Python's recursion
    limit.  The returned certificate is re-verified.
    """
    if g.n != h.n or len(g.arcs) != len(h.arcs):
        return None
    gcol, hcol = refine_colors(g), refine_colors(h)
    if sorted(gcol) != sorted(hcol):
        return None
    return _find_isomorphism(g, h, gcol, hcol)


def _find_isomorphism(
    g: OrientedGraph, h: OrientedGraph, gcol: tuple[int, ...], hcol: tuple[int, ...]
) -> IsoCertificate | None:
    """The backtracking search of is_isomorphic, given the refined colors of
    g and h, whose color histograms are equal."""
    n = g.n
    if n == 0:
        return IsoCertificate(())
    h_by_color: dict[int, list[int]] = {}
    for w in range(n):
        h_by_color.setdefault(hcol[w], []).append(w)

    h_out, h_in = h.out_masks, h.in_masks
    h_twin = _previous_twins(h)

    # pick order: most already-mapped neighbors first; ties by color class
    # size, then id.  A pick depends only on which vertices are mapped, and at
    # every node those are the earlier picks, so the order is fixed before
    # the search.  The lazy heap holds (-mapped neighbors, class size, v); a
    # vertex's newest entry is its smallest, so its first entry out is current
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
    # each vertex's in- and out-neighbors that are mapped when it is picked
    earlier_ins: list[list[int]] = [[] for _ in range(n)]
    earlier_outs: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.arcs:
        if position[u] < position[v]:
            earlier_ins[v].append(u)
        else:
            earlier_outs[u].append(v)

    mapping = [-1] * n
    used_mask = 0

    def open_node(k: int) -> list:
        # the images w of the k-th pick v consistent with the partial map: the
        # mapped in- and out-neighbors of v must be exactly the used ones of w
        v = order[k]
        img_in = img_out = 0
        for u in earlier_ins[v]:
            img_in |= 1 << mapping[u]
        for u in earlier_outs[v]:
            img_out |= 1 << mapping[u]
        cands = [
            w
            for w in h_by_color[gcol[v]]
            if not used_mask >> w & 1
            and (h_twin[w] == -1 or used_mask >> h_twin[w] & 1)
            and h_in[w] & used_mask == img_in
            and h_out[w] & used_mask == img_out
        ]
        return [v, cands, 0]

    # one [vertex, candidates, next index] frame per assigned or open vertex
    stack = [open_node(0)]
    while True:
        frame = stack[-1]
        v, cands, i = frame
        w = mapping[v]
        if w != -1:  # undo the candidate tried last at this node
            mapping[v] = -1
            used_mask ^= 1 << w
        if i == len(cands):
            stack.pop()
            if not stack:
                return None
            continue
        w = cands[i]
        frame[2] = i + 1
        mapping[v] = w
        used_mask |= 1 << w
        if len(stack) == n:
            break
        stack.append(open_node(len(stack)))

    cert = IsoCertificate(tuple(mapping))
    if not is_isomorphism(g, h, cert.mapping):
        raise AssertionError("isomorphism search produced an invalid certificate")
    return cert


def canonical_code(g: OrientedGraph) -> bytes:
    """Canonical byte string: equal codes iff the graphs are isomorphic.

    Minimizes the layered adjacency-bit string over every vertex order that
    lists refined colors in nondecreasing order.  Branch and bound with exact
    prefix pruning: a branch is cut only when its prefix already exceeds the
    best complete string, so the reported minimum is exhaustive.  A vertex is
    placed only after its previous twin (same out- and in-neighbourhood):
    swapping two twins is an automorphism that fixes every other vertex, so
    every order has a twin-sorted order with the same string, and the
    minimum is unchanged.
    """
    n = g.n
    if n > CANONICAL_SIZE_LIMIT:
        raise GraphError(f"canonical_code limit exceeded: n={n} > {CANONICAL_SIZE_LIMIT}")
    if n == 0:
        return b"0|"
    colors = refine_colors(g)
    out, inn = g.out_masks, g.in_masks
    twin = _previous_twins(g)

    order: list[int] = []
    layers: list[int] = []
    taken = [False] * n
    best: list[int] | None = None

    def layer_of(v: int) -> int:
        # arcs between v and the already-ordered vertices, oldest first
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
            # layers[:k] <= best[:k] always holds here; prune only on a tie
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
    assert best is not None
    return (f"{n}|" + ",".join(map(str, best))).encode()
