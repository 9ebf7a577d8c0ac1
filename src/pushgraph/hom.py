"""Homomorphism and push-homomorphism search, homomorphism transfer under
target pushing, and exact oriented/push chromatic numbers.

A push homomorphism of g into h is found by searching an ordinary
homomorphism of g into the anti-twinned graph of h and folding it with
push.fold_to_push_witness.  The search keeps its choice points on an explicit
stack, so no recursion limit bounds the source's size, and spends its nodes
on a pushgraph.search tracker, which owns the budget and the three outcomes
(found, none, budget-exhausted) that every result reports.  Chromatic
numbers are minimum tournament orders: adding arcs to a target never
destroys a homomorphism and every oriented graph extends to a tournament.
g maps to a tournament of order k iff g has a k-colouring with no arc inside
a class and all arcs between two classes in one direction (Raspaud & Sopena
1994), read after pushing by a bit per vertex for push homomorphisms; so one
quotient search per order proves absence at every order below the chromatic
number, and only at that number are the tournaments walked, in enumeration
order, for the first target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Iterable

from .graph import GraphError, OrientedGraph
from .isomorphism import _augment, is_homomorphism
from .push import PushHomWitness, _presentations, anti_twinned, fold_to_push_witness, push
from .search import SearchBudget, _SearchStatus, _Tracker


@dataclass(frozen=True)
class HomSearchResult(_SearchStatus):
    """Outcome of a homomorphism search.

    complete distinguishes a proven absence (search space exhausted) from a
    budget-truncated search; a mapping is always verified before release.
    """

    _hit = "mapping"
    mapping: tuple[int, ...] | None
    complete: bool
    nodes: int
    seconds: float


@dataclass(frozen=True)
class PushHomResult(_SearchStatus):
    _hit = "witness"
    witness: PushHomWitness | None
    complete: bool
    nodes: int
    seconds: float


def _solve(g: OrientedGraph, h: OrientedGraph, tracker: _Tracker):
    """Backtracking search that keeps every arc constraint consistent.

    Candidate domains live in bitmasks; assigning a vertex re-propagates arc
    consistency to a fixpoint, so an unsatisfiable remnant (for instance one
    forced path among many satisfiable ones) wipes a domain immediately
    instead of being rediscovered once per combination of the others.
    Variable order is deterministic smallest-domain-first with ties broken by
    maximum degree and then vertex id; candidate values ascend by target id.
    The next variable comes from a lazy min-heap of (domain size, -degree,
    vertex): every narrowed or restored domain offers a fresh entry, and an
    entry whose size no longer matches its vertex's domain is dropped when it
    reaches the top, so a pick costs O(log n) per entry instead of a scan.
    Choice points live on an explicit stack, one frame per assigned vertex.
    Returns the mapping, or None when there is none or the tracker ran out.
    """
    n = g.n
    if n == 0:
        return ()
    if h.n == 0:
        return None
    degree = [len(nbrs) for nbrs in g.adjacency]
    h_out, h_in = h.out_masks, h.in_masks
    constraints: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for u, v in g.arcs:
        # stored on each endpoint: (other side, and whether the arc leaves it)
        constraints[u].append((v, True))
        constraints[v].append((u, False))

    full = (1 << h.n) - 1
    domains = [full] * n
    heap: list[tuple[int, int, int]] = []

    def propagate(changed: list[int], trail: list[tuple[int, int]]) -> bool:
        while changed:
            b = changed.pop()
            # a value of a neighbour of b survives if it is an out-neighbour
            # (for an arc b -> a) or an in-neighbour of some value of b
            succ = pred = 0
            rem = domains[b]
            while rem:
                low = rem & -rem
                rem ^= low
                x = low.bit_length() - 1
                succ |= h_out[x]
                pred |= h_in[x]
            for a, b_to_a in constraints[b]:
                da = domains[a]
                new = da & (succ if b_to_a else pred)
                if new != da:
                    trail.append((a, da))
                    domains[a] = new
                    if new == 0:
                        return False
                    heappush(heap, (new.bit_count(), -degree[a], a))
                    changed.append(a)
        return True

    if not propagate(list(range(n)), []):
        return None
    heap[:] = [(d.bit_count(), -degree[v], v) for v, d in enumerate(domains)]
    heapify(heap)

    def pick() -> int:
        while heap:
            count, _, v = heap[0]
            if count > 1 and count == domains[v].bit_count():
                return v
            heappop(heap)
        return -1

    v = pick()
    if v < 0:
        return tuple(d.bit_length() - 1 for d in domains)
    # frames [vertex, untried candidates, saved domain, trail of the current
    # candidate]; the top frame's trail is undone before its next candidate
    stack = [[v, domains[v], domains[v], []]]
    while stack:
        frame = stack[-1]
        v, cand, saved, trail = frame
        for a, old in reversed(trail):
            domains[a] = old
            heappush(heap, (old.bit_count(), -degree[a], a))
        if not cand:
            stack.pop()
            continue
        if not tracker.spend():
            return None
        low = cand & -cand
        trail = [(v, saved)]
        frame[1], frame[3] = cand ^ low, trail
        domains[v] = low
        if propagate([v], trail):
            v = pick()
            if v < 0:
                return tuple(d.bit_length() - 1 for d in domains)
            stack.append([v, domains[v], domains[v], []])
    return None


def find_hom(
    g: OrientedGraph,
    h: OrientedGraph,
    budget: SearchBudget | None = None,
    _tracker: _Tracker | None = None,
) -> HomSearchResult:
    """Search for a homomorphism g -> h within the budget.

    An absent mapping with complete=True is a proof of absence; with
    complete=False the budget ran out first.
    """
    tracker = _tracker or _Tracker(budget)
    mapping = _solve(g, h, tracker)
    if mapping is not None and not is_homomorphism(g, h, mapping):
        raise AssertionError("solver produced a non-homomorphism")
    return HomSearchResult(mapping, not tracker.exhausted, tracker.nodes, tracker.seconds)


def find_push_hom(
    g: OrientedGraph,
    h: OrientedGraph,
    budget: SearchBudget | None = None,
    _tracker: _Tracker | None = None,
) -> PushHomResult:
    """Search for a push homomorphism of g into h via the anti-twin reduction;
    fold_to_push_witness is the one check of the solver's mapping."""
    tracker = _tracker or _Tracker(budget)
    mapping = _solve(g, anti_twinned(h), tracker)
    witness = None if mapping is None else fold_to_push_witness(g, h, mapping)
    return PushHomResult(witness, not tracker.exhausted, tracker.nodes, tracker.seconds)


def brute_force_push_hom(
    g: OrientedGraph, h: OrientedGraph, budget: SearchBudget | None = None
) -> PushHomResult:
    """Independent oracle: try find_hom from every presentation of g."""
    if g.n > 16:
        raise GraphError(f"brute_force_push_hom size limit exceeded: n={g.n}")
    tracker = _Tracker(budget)
    for vector, arcs in _presentations(g):
        mapping = find_hom(OrientedGraph(g.n, arcs), h, _tracker=tracker).mapping
        if mapping is not None:
            witness = PushHomWitness(vector, mapping)
            return PushHomResult(witness, True, tracker.nodes, tracker.seconds)
        if tracker.exhausted:
            break
    return PushHomResult(None, not tracker.exhausted, tracker.nodes, tracker.seconds)


def transfer(
    g: OrientedGraph,
    h: OrientedGraph,
    mapping: tuple[int, ...],
    push_on_target: Iterable[int],
) -> frozenset[int]:
    """Push vector on g making mapping a homomorphism onto the pushed target.

    Pushing the preimages of the pushed target vertices works; the
    postcondition is re-verified before returning.
    """
    if not is_homomorphism(g, h, mapping):
        raise GraphError("transfer requires a verified homomorphism")
    target_set = set(push_on_target)
    source_set = frozenset(v for v in range(g.n) if mapping[v] in target_set)
    if not is_homomorphism(push(g, source_set), push(h, target_set), mapping):
        raise AssertionError("transferred presentation failed re-verification")
    return source_set


@lru_cache(maxsize=None)
def enumerate_tournaments(k: int) -> tuple[OrientedGraph, ...]:
    """One representative per isomorphism class of tournaments on k vertices."""
    if k < 0:
        raise GraphError("tournament order must be non-negative")
    if k > 7:
        raise GraphError(f"tournament enumeration limit exceeded: k={k} > 7")
    if k == 0:
        return (OrientedGraph(0),)
    new = k - 1
    return _augment(
        enumerate_tournaments(new), k, [((new, i), (i, new)) for i in reversed(range(new))]
    )


@lru_cache(maxsize=None)
def _anti_twinned_tournaments(k: int) -> tuple[OrientedGraph, ...]:
    """anti_twinned of each tournament of order k, in enumeration order: the
    hosts that find_push_hom would build for the push walk."""
    return tuple(anti_twinned(t) for t in enumerate_tournaments(k))


@dataclass(frozen=True)
class ChromaticResult:
    """Exact chromatic value with a verified witness, or a proven lower bound.

    value is None when no target of order <= the requested maximum admits a
    homomorphism; lower_bound then reports max_k + 1 provided the searches
    were complete.
    """

    value: int | None
    target: OrientedGraph | None
    witness: object | None
    lower_bound: int
    complete: bool
    nodes: int
    seconds: float


def _quotient_layout(g: OrientedGraph):
    """The positions of the quotient search: g's vertices component by
    component, each in BFS order from its smallest vertex.  Returns whether
    each position starts a component, and each position's earlier neighbours
    as (position, 1 if the arc leaves the later vertex else 0)."""
    order: list[int] = []
    starts = [False] * g.n
    seen = [False] * g.n
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = starts[len(order)] = True
        head = len(order)
        order.append(s)
        while head < len(order):
            for y in g.adjacency[order[head]]:
                if not seen[y]:
                    seen[y] = True
                    order.append(y)
            head += 1
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v in g.arcs:
        i, j = pos[u], pos[v]
        if i > j:
            earlier[i].append((j, 1))
        else:
            earlier[j].append((i, 0))
    return starts, earlier


# _quotient_colouring's outcome when its allowance of nodes ran out
_UNDECIDED = "undecided"


def _quotient_colouring(layout, k: int, pushing: bool, tracker: _Tracker, allowance: int):
    """Decide whether g has a colouring with at most k classes, no arc inside
    a class and all arcs between two classes in one direction, read after
    pushing the vertices whose bit is 1 when pushing.  Such a colouring
    exists iff g (push) maps to some tournament of order k (Raspaud & Sopena
    1994).  The colouring itself is not kept: _chromatic takes its
    certificate from the tournament walk.

    Vertices take colours along the layout's order by restricted growth: a
    used colour or the smallest unused one, since unused colours are
    interchangeable.  When pushing, a vertex also takes a bit, 1 only on a
    used colour and off a component's first vertex, since pushing a whole
    component, or the whole class of a colour opened here, maps a colouring
    to a colouring.  Each colour pair keeps a count of arcs per direction, so
    a value is refused at an arc inside its class or against its pair's
    direction.  Every tentative (colour, bit) spends one tracker node, and
    the choice points live in per-position arrays, not on the call stack.

    Returns True when there is a colouring; None when there is none or the
    tracker ran out; or _UNDECIDED once the tracker has counted allowance
    more nodes.
    """
    starts, earlier = layout
    n = len(starts)
    if n == 0:
        return True
    rel = [0] * (k * k)  # rel[a * k + b]: arcs from class a to class b
    col, bit = [0] * n, [0] * n
    used = [0] * (n + 1)  # colours used before each position
    tried = [0] * n  # values tried at each position
    added: list[list[int]] = [[] for _ in range(n)]  # rel entries of each value
    stop = tracker.nodes + allowance
    i = 0
    while True:
        for x in added[i]:
            rel[x] -= 1
        u = used[i]
        # values in order: (c, 0), (c, 1) for each used c, then (u, 0); on
        # a component's first vertex or without pushing, (c, 0) for c <= u
        two = pushing and not starts[i]
        j = tried[i]
        if j == (2 * u + (u < k) if two else min(u + 1, k)):
            if i == 0:
                return None
            i -= 1
            continue
        if tracker.nodes == stop:
            return _UNDECIDED
        if not tracker.spend():
            return None
        tried[i] = j + 1
        c, t = (j >> 1, j & 1) if two else (j, 0)
        incs = added[i] = []
        for p, leaves in earlier[i]:
            a = col[p]
            if a == c:
                break
            if leaves ^ bit[p] ^ t:
                fwd, back = c * k + a, a * k + c
            else:
                fwd, back = a * k + c, c * k + a
            if rel[back]:
                break
            rel[fwd] += 1
            incs.append(fwd)
        else:
            col[i], bit[i] = c, t
            i += 1
            if i == n:
                return True
            used[i] = u + (c == u)
            tried[i] = 0
            added[i] = []
            continue
        for x in incs:
            rel[x] -= 1
        incs.clear()


def _chromatic(g: OrientedGraph, max_k: int, budget: SearchBudget | None, pushing: bool):
    """Smallest k <= max_k with a (push) homomorphism of g into a tournament
    of order k.

    Each k gets one quotient search.  Its "no" proves that no tournament of
    order k admits g, so none is tried.  After a "yes" the tournaments of
    order k are walked in enumerate_tournaments order, with find_hom for
    the oriented number, until the first hit, whose checked mapping is the
    one certificate of the order and gives the target and the witness; a
    walk with no hit after a "yes" raises AssertionError, so a wrong "yes"
    cannot pass.  A push walk runs the solver on each tournament's
    anti-twinned graph, built once per order for every call, and folds and
    checks the hit as find_push_hom does.

    The quotient search may spend 16 (n + 1) nodes per tournament of order
    k, so it never costs much more than the walk it replaces; past that the
    walk decides the order instead.  The quotient search backtracks along a
    fixed order without propagation, which on large sparse graphs can take
    millions of nodes where the solver's arc consistency against each
    tournament takes tens (the girth 8 witness at k = 3).  All searches
    share one tracker; when it runs out the result is incomplete with lower
    bound k.
    """
    if not 0 <= max_k <= 7:
        raise GraphError("chromatic search supports target orders 0..7 only")
    tracker = _Tracker(budget)
    layout = _quotient_layout(g)
    for k in range(max_k + 1):
        targets = enumerate_tournaments(k)
        allowance = 16 * (g.n + 1) * len(targets)
        colourable = _quotient_colouring(layout, k, pushing, tracker, allowance)
        if tracker.exhausted:
            return ChromaticResult(None, None, None, k, False, tracker.nodes, tracker.seconds)
        if colourable is None:
            continue
        hosts = _anti_twinned_tournaments(k) if pushing else targets
        for target, host in zip(targets, hosts):
            if pushing:
                mapping = _solve(g, host, tracker)
            else:
                mapping = find_hom(g, host, _tracker=tracker).mapping
            if mapping is not None:
                hit = fold_to_push_witness(g, target, mapping) if pushing else mapping
                return ChromaticResult(k, target, hit, k, True, tracker.nodes, tracker.seconds)
            if tracker.exhausted:
                return ChromaticResult(None, None, None, k, False, tracker.nodes, tracker.seconds)
        if colourable is True:
            raise AssertionError(f"no tournament of order {k} admits a quotient-coloured graph")
    return ChromaticResult(
        None, None, None, max_k + 1, True, tracker.nodes, tracker.seconds
    )


def oriented_chromatic_number(
    g: OrientedGraph, max_k: int = 7, budget: SearchBudget | None = None
) -> ChromaticResult:
    """Smallest tournament order <= max_k admitting a homomorphism from g."""
    return _chromatic(g, max_k, budget, False)


def push_chromatic_number(
    g: OrientedGraph, max_k: int = 7, budget: SearchBudget | None = None
) -> ChromaticResult:
    """Smallest tournament order <= max_k admitting a push homomorphism from g."""
    return _chromatic(g, max_k, budget, True)
