"""Constructive push-colorings of sparse graphs.

Outerplanar girth-5 graphs are colored into the directed triangle by the
push-homomorphism solver run against the anti-twinned triangle.  Graphs whose
maximum average degree is below 8/3 are colored into the apex-triangle target
by reduce/extend.  The reducible configurations are (i) a vertex of degree at
most one, (ii) two adjacent degree-2 vertices, (iii) a degree-3 vertex with
two degree-2 neighbors.  A vertex's degree fixes the one kind it can centre,
so the reducer keeps each vertex's degree and count of degree-2 neighbours
and tests a vertex in O(1); a deletion re-offers only the vertices whose
degree fell, and the neighbours of those left with degree 2.  _SHAPES states
each configuration's deleted arcs once; it orders the senses of a located
configuration and drives the one builder of all three exhaustive extension
tables, whose completeness is asserted when they are built.  The extension
looks each kind's shape and table up once per colouring, and the witness is
checked once, arc by arc on the source, with no pushed graph built.  The
exact path dynamic program into the directed triangle serves the verify
suites and the tables' path check.
"""

from __future__ import annotations

try:  # skip hashlib, which maps OpenSSL (about 3.5 MB resident), as random does
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed the module
    from hashlib import sha256
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import compress, product

from .density import mad_less_than
from .families import c3, paley_plus, parse_pattern, oriented_path
from .graph import GraphError, OrientedGraph, emit_graph
from .hom import find_push_hom
from .push import PushHomWitness, _maps_pushed_arcs
from .search import InconclusiveSearch, SearchBudget

# pinned digest of the deterministic table construction; a mismatch means the
# shipped extension data no longer matches the code that consumes it
_EXPECTED_TABLES_SHA256 = "74f7f4ed8fe8bd938d302d7f80c0ac5f692a1b98a1d31fcf3dd9026c3189378a"


class CounterexampleFound(RuntimeError):
    """A verified result contradicts a structural guarantee; highest severity."""

    def __init__(self, detail: str, graph_text: str | None = None):
        self.detail = detail
        self.graph_text = graph_text
        super().__init__(detail)


# -- path extension into the directed triangle ------------------------------


def path_extend_to_c3(
    pattern, a: int, b: int
) -> tuple[frozenset[int], tuple[int, ...]] | None:
    """Push interior path vertices so the endpoints map to a and b in C3.

    Exact decision for every pattern length by dynamic programming over
    (position, triangle vertex, pushed) states; endpoints are never pushed.
    The witness is re-verified before returning.
    """
    bits = parse_pattern(pattern)
    if not (0 <= a < 3 and 0 <= b < 3):
        raise GraphError("endpoint images must be vertices of the directed triangle")
    m = len(bits)
    # states[pos] maps (color, pushed) -> predecessor (color, pushed)
    states: list[dict[tuple[int, int], tuple[int, int] | None]] = [dict() for _ in range(m + 1)]
    states[0][(a, 0)] = None
    for pos in range(m):
        step = 1 if bits[pos] else 0
        next_pushes = (0,) if pos + 1 == m else (0, 1)
        for (color, pushed) in states[pos]:
            for np in next_pushes:
                effective = step ^ pushed ^ np
                nc = (color + 1) % 3 if effective else (color - 1) % 3
                states[pos + 1].setdefault((nc, np), (color, pushed))
    if (b, 0) not in states[m]:
        return None
    colors = [0] * (m + 1)
    pushed_flags = [0] * (m + 1)
    cur: tuple[int, int] | None = (b, 0)
    for pos in range(m, -1, -1):
        assert cur is not None
        colors[pos], pushed_flags[pos] = cur
        cur = states[pos][cur]
    interior = frozenset(i for i in range(1, m) if pushed_flags[i])
    mapping = tuple(colors)
    if not _maps_pushed_arcs(oriented_path(bits), c3(), interior, mapping):
        raise AssertionError("path extension witness failed re-verification")
    return interior, mapping


# -- reducible configurations ------------------------------------------------


class ConfigKind(Enum):
    DEGREE_AT_MOST_ONE = "degree-at-most-one"
    ADJACENT_DEGREE_TWO_PAIR = "adjacent-degree-two-pair"
    DEGREE_THREE_TWO_DEGREE_TWO = "degree-three-with-two-degree-two-neighbors"


# each kind's deleted arcs as (tail, head) positions in anchors + squares, in
# the order of ConfigDescriptor.senses and of the extension-table keys
_SHAPES = {
    ConfigKind.DEGREE_AT_MOST_ONE: ((0, 1),),
    ConfigKind.ADJACENT_DEGREE_TWO_PAIR: ((0, 2), (2, 3), (3, 1)),
    ConfigKind.DEGREE_THREE_TWO_DEGREE_TWO: ((0, 3), (3, 5), (1, 4), (4, 5), (2, 5)),
}

# each kind's answer positions (square pushes, then square colors) from the
# outermost search loop in; a table keeps the first answer per key, so this
# order is part of the pinned tables (the degree-3 search starts at the centre)
_SEARCH_ORDER = {
    ConfigKind.DEGREE_AT_MOST_ONE: (0, 1),
    ConfigKind.ADJACENT_DEGREE_TWO_PAIR: (0, 1, 2, 3),
    ConfigKind.DEGREE_THREE_TWO_DEGREE_TWO: (2, 5, 0, 3, 1, 4),
}


@dataclass(frozen=True)
class ConfigDescriptor:
    """A located reducible configuration.

    squares are the prescribed-degree vertices the reduction deletes; anchors
    are their remaining neighbors in role order; senses[i] is 1 when the i-th
    arc of the kind's _SHAPES entry is oriented tail to head in the graph.
    """

    kind: ConfigKind
    squares: tuple[int, ...]
    anchors: tuple[int, ...]
    senses: tuple[int, ...]


def _reductions(g: OrientedGraph):
    """Yield reducible configurations of g, first by kind and then by
    smallest vertex id, deleting each one's squares before the next; stop
    when no vertex or no configuration is left.

    A vertex's degree d fixes the one kind it can centre: kind max(d - 1, 0)
    for d <= 3, when at least d - 1 of its neighbours have degree 2.  Each
    vertex's degree and count of degree-2 neighbours are kept as squares are
    deleted (a vertex entering or leaving degree 2 adjusts its neighbours'
    counts), so the test takes O(1).  A min-heap holds every vertex that
    centres its kind, as kind * n + vertex so that it pops in (kind, vertex)
    order, and the top is re-tested before it is trusted.  A deletion makes
    a vertex a centre, or changes its kind, only by lowering its degree or
    raising its count, so only the surviving neighbours of the squares are
    offered again, with the neighbours of each one left with degree 2.
    """
    n = g.n
    arcs = set(g.arcs)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.arcs:
        adj[u].add(v)
        adj[v].add(u)
    two = [0] * n
    for nbrs in adj:
        if len(nbrs) == 2:
            for w in nbrs:
                two[w] += 1
    alive = [True] * n
    left = n

    def kind(v: int) -> int:
        """The kind v centres, or -1."""
        d = len(adj[v])
        if d <= 1:
            return 0
        return d - 1 if d <= 3 and two[v] >= d - 1 else -1

    kinds = list(ConfigKind)
    shapes = [_SHAPES[kind] for kind in kinds]
    heap = [k * n + v for v in range(n) if (k := kind(v)) >= 0]
    heapify(heap)
    while heap and left:
        k, v = divmod(heappop(heap), n)
        if not alive[v] or kind(v) != k:
            continue
        if k == 0:
            squares, anchors = (v,), tuple(adj[v])
        elif k == 1:
            s2 = min(w for w in adj[v] if len(adj[w]) == 2)
            squares, anchors = (v, s2), (next(iter(adj[v] - {s2})), next(iter(adj[s2] - {v})))
        else:
            v1, v2 = sorted(w for w in adj[v] if len(adj[w]) == 2)[:2]
            squares = (v1, v2, v)
            anchors = (next(iter(adj[v1] - {v})), next(iter(adj[v2] - {v})), min(adj[v] - {v1, v2}))
        points = anchors + squares
        # a lone vertex of kind (i) has no anchor, so no arc of its shape
        senses = tuple(
            int((points[a], points[b]) in arcs) for a, b in shapes[k] if b < len(points)
        )
        yield ConfigDescriptor(kinds[k], squares, anchors, senses)
        for s in squares:
            alive[s] = False
            left -= 1
            gone = len(adj[s]) == 2
            for w in adj[s]:
                rest = adj[w]
                rest.discard(s)
                two[w] -= gone
                if 1 <= len(rest) <= 2:  # w left degree 2, or entered it
                    step = 1 if len(rest) == 2 else -1
                    for x in rest:
                        two[x] += step
        for s in squares:
            for w in adj[s]:
                if alive[w]:
                    for x in (w, *adj[w]) if len(adj[w]) == 2 else (w,):
                        if (k := kind(x)) >= 0:
                            heappush(heap, k * n + x)


def find_reducible_config(g: OrientedGraph) -> ConfigDescriptor | None:
    """First reducible configuration by kind, then by smallest vertex id.

    Never returns None on a non-empty graph with mad below 8/3; a None there
    would refute the discharging argument.
    """
    return next(_reductions(g), None)


@dataclass(frozen=True)
class DischargeRow:
    vertex: int
    degree: int
    modified_degree: Fraction


@dataclass(frozen=True)
class DischargeReport:
    rows: tuple[DischargeRow, ...]
    min_modified_degree: Fraction | None
    meets_eight_thirds: bool


def discharge_audit(g: OrientedGraph) -> DischargeReport:
    """Apply the transfer rule (degree >= 3 gives 1/3 to each degree-2
    neighbor) and report every vertex's resulting charge."""
    adj = g.adjacency
    degrees = [len(nbrs) for nbrs in adj]
    rows = []
    for v, nbrs in enumerate(adj):
        charge = Fraction(degrees[v])
        if degrees[v] >= 3:
            charge -= Fraction(1, 3) * sum(1 for w in nbrs if degrees[w] == 2)
        if degrees[v] == 2:
            charge += Fraction(1, 3) * sum(1 for w in nbrs if degrees[w] >= 3)
        rows.append(DischargeRow(v, degrees[v], charge))
    minimum = min((r.modified_degree for r in rows), default=None)
    meets = minimum is None or minimum >= Fraction(8, 3)
    return DischargeReport(tuple(rows), minimum, meets)


# -- extension tables ---------------------------------------------------------


@dataclass(frozen=True)
class ExtensionTables:
    """Exhaustively enumerated extension data for every reducible configuration.

    by_kind maps each ConfigKind to its table: (anchor colors, one sense per
    _SHAPES arc) -> (square pushes, square colors).  Missing keys would refute
    the configuration analysis, so completeness is asserted at build time.
    """

    by_kind: dict
    sha256: str


def _arc_ok(target: OrientedGraph, a: int, b: int, sense: int) -> bool:
    return target.has_arc(a, b) if sense else target.has_arc(b, a)


def _extension_table(target: OrientedGraph, kind: ConfigKind) -> dict:
    """Map every key of the kind to the first answer, in _SEARCH_ORDER, that
    satisfies every arc of its _SHAPES entry; raise on a key left empty."""
    shape, order = _SHAPES[kind], _SEARCH_ORDER[kind]
    squares = len(order) // 2
    anchors = max(map(max, shape)) + 1 - squares
    # sense[a][b]: the one sense under which colors a, b satisfy an arc, or None
    sense = [
        [next((s for s in (0, 1) if _arc_ok(target, a, b, s)), None) for b in range(target.n)]
        for a in range(target.n)
    ]
    domains = [(0, 1)] * squares + [range(target.n)] * squares
    place = [order.index(i) for i in range(len(order))]
    answers = [tuple(values[j] for j in place) for values in product(*(domains[i] for i in order))]
    table: dict = {}
    for colors in product(range(target.n), repeat=anchors):
        for hit in answers:
            points, pushed = colors + hit[squares:], (0,) * anchors + hit[:squares]
            key = list(colors)
            for a, b in shape:
                s = sense[points[a]][points[b]]
                if s is None:
                    break
                key.append(s ^ pushed[a] ^ pushed[b])
            else:
                table.setdefault(tuple(key), hit)
    for key in product(*([range(target.n)] * anchors), *([(0, 1)] * len(shape))):
        if key not in table:
            raise CounterexampleFound(f"no extension for {kind.value}: key {key}")
    return table


@lru_cache(maxsize=None)
def build_extension_tables() -> ExtensionTables:
    """Build (and cache) the extension tables; assert their completeness.

    An unsolvable key is reported as a contradiction, never patched.
    """
    target = paley_plus()
    by_kind = {kind: _extension_table(target, kind) for kind in ConfigKind}
    path_ok = all(
        path_extend_to_c3([bool(bits >> i & 1) for i in range(4)], a, b) is not None
        for bits in range(16)
        for a in range(3)
        for b in range(3)
        if a != b
    )
    # the pinned digest covers the tables of (ii) and (iii), not of (i)
    pinned = [repr(sorted(table.items())) for table in list(by_kind.values())[1:]]
    digest = sha256(("".join(pinned) + repr(path_ok)).encode()).hexdigest()
    if digest != _EXPECTED_TABLES_SHA256:
        raise CounterexampleFound(
            "extension tables changed: digest "
            f"{digest} does not match the pinned {_EXPECTED_TABLES_SHA256}"
        )
    return ExtensionTables(by_kind, digest)


# -- the sparse colorer -------------------------------------------------------


@dataclass(frozen=True)
class ColoringCertificate:
    """Verified push homomorphism plus the reduction trace that produced it.

    Construction checks the witness on the source's arcs, each reversed
    where exactly one end is in the push vector, with no pushed graph built;
    a push vertex outside the source raises GraphError, as a failed check
    does."""

    source: OrientedGraph
    target: OrientedGraph
    witness: PushHomWitness
    trace: tuple[ConfigDescriptor, ...] = ()

    def __post_init__(self):
        witness = self.witness
        if not _maps_pushed_arcs(self.source, self.target, witness.push_vector, witness.mapping):
            raise GraphError("coloring certificate failed verification")


def push_color_to_paley(g: OrientedGraph) -> ColoringCertificate:
    """Color any graph with maximum average degree below 8/3 (verified, not
    assumed) into the apex-triangle target.

    Repeatedly deletes a reducible configuration, then unwinds the trace,
    extending through the configuration tables.  The certificate verifies
    the composed witness arc by arc, once.
    """
    target = paley_plus()
    if g.n == 0:
        return ColoringCertificate(g, target, PushHomWitness(frozenset(), ()))
    if not mad_less_than(g, Fraction(8, 3)):
        raise GraphError("push_color_to_paley requires maximum average degree below 8/3")
    tables = build_extension_tables()
    trace = tuple(_reductions(g))
    if sum(len(cfg.squares) for cfg in trace) < g.n:
        raise CounterexampleFound(
            "a non-empty graph with mad below 8/3 contains no reducible configuration",
            emit_graph(g),
        )
    return ColoringCertificate(g, target, _extend(g.n, trace, tables), trace)


def _extend(n: int, trace, tables) -> PushHomWitness:
    """Push and colour the squares of each configuration, the last deleted
    first, by the table of its kind; a lone vertex keeps colour 0, unpushed.

    A key is the anchor colours, then each _SHAPES sense XOR the pushes of
    its anchor ends; the squares' pushes are the table's answer, so they
    count as 0 there."""
    colors, pushes = [0] * n, [0] * n
    kinds = list(ConfigKind)
    plans = [(_SHAPES[kind], tables.by_kind[kind]) for kind in kinds]
    for cfg in reversed(trace):
        squares, anchors = cfg.squares, cfg.anchors
        if not anchors:  # a lone vertex
            continue
        shape, table = plans[kinds.index(cfg.kind)]
        ends = [pushes[u] for u in anchors] + [0] * len(squares)
        hit = table[(
            *[colors[u] for u in anchors],
            *[s ^ ends[a] ^ ends[b] for s, (a, b) in zip(cfg.senses, shape)],
        )]
        for i, v in enumerate(squares):
            pushes[v], colors[v] = hit[i], hit[len(squares) + i]
    return PushHomWitness(frozenset(compress(range(n), pushes)), tuple(colors))


def color_outerplanar_g5(
    g: OrientedGraph, budget: SearchBudget | None = None
) -> ColoringCertificate:
    """Push-color an outerplanar girth-5 graph into the directed triangle.

    Delegates to the push-homomorphism solver against the 6-vertex reduction
    target.  Every graph of the family push-maps to the triangle, so a
    proven absence shows that g is outside it and raises GraphError, as
    push_color_to_paley refuses mad >= 8/3; membership is not checked, so
    only a caller that built g in the family can read that as a refutation.
    """
    result = find_push_hom(g, c3(), budget)
    if result.witness is not None:
        return ColoringCertificate(g, c3(), result.witness)
    if result.complete:
        raise GraphError(
            "color_outerplanar_g5 proved there is no push homomorphism into the "
            "directed triangle, so the input is not outerplanar with girth at least 5"
        )
    raise InconclusiveSearch("budget exhausted before the coloring search finished")
