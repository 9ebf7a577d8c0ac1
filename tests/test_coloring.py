import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pushgraph import (
    ConfigKind,
    CounterexampleFound,
    GraphError,
    InconclusiveSearch,
    OrientedGraph,
    SearchBudget,
    build_extension_tables,
    color_outerplanar_g5,
    discharge_audit,
    find_reducible_config,
    is_homomorphism,
    path_extend_to_c3,
    push,
    push_color_to_paley,
    push_chromatic_number,
    two_step_neighborhoods,
)
from pushgraph import coloring
from pushgraph.coloring import _EXPECTED_TABLES_SHA256, _SHAPES, _arc_ok, _reductions
from pushgraph.families import (
    c3,
    directed_cycle,
    girth8_witness,
    paley_plus,
    random_outerplanar,
    random_sparse,
)
from pushgraph.hom import enumerate_tournaments

from oracles import reduction_by_scan


def test_two_step_identities_on_apex_triangle():
    target = paley_plus()
    everything = frozenset(range(4))
    for v in range(4):
        steps = two_step_neighborhoods(target, v)
        assert steps.out_out | steps.in_in == everything - {v}
        assert steps.out_in | steps.in_out == everything


def test_two_step_on_triangle():
    for v in range(3):
        steps = two_step_neighborhoods(c3(), v)
        assert steps.out_out == {(v + 2) % 3}


def test_path_extension_stated_values():
    assert path_extend_to_c3("+++-", 0, 0) is None
    for mask in range(16):
        pattern = tuple(bool(mask >> i & 1) for i in range(4))
        for a, b in product(range(3), range(3)):
            if a != b:
                assert path_extend_to_c3(pattern, a, b) is not None


def test_path_extension_all_forward_equal_ends():
    # interior pushes can reach the two-reversals pattern, displacement zero
    found = path_extend_to_c3("++++", 0, 0)
    assert found is not None
    interior, mapping = found
    assert mapping[0] == mapping[4] == 0


def test_path_extension_witness_verifies():
    rng = random.Random(0)
    from pushgraph.families import oriented_path

    for _ in range(50):
        m = rng.randint(1, 6)
        pattern = tuple(rng.random() < 0.5 for _ in range(m))
        a, b = rng.randrange(3), rng.randrange(3)
        hit = path_extend_to_c3(pattern, a, b)
        if hit is not None:
            interior, mapping = hit
            assert mapping[0] == a and mapping[-1] == b
            assert is_homomorphism(push(oriented_path(pattern), interior), c3(), mapping)


def test_interior_pushes_preserve_pattern_parity():
    # the reachable patterns are exactly those with the same backward-count
    # parity; exhaustive for short paths
    from pushgraph.families import oriented_path

    for m in range(1, 7):
        for mask in range(1 << m):
            pattern = [bool(mask >> i & 1) for i in range(m)]
            path = oriented_path(pattern)
            reached = set()
            for bits in range(1 << max(m - 1, 0)):
                interior = [i + 1 for i in range(m - 1) if bits >> i & 1]
                moved = push(path, interior)
                reached.add(tuple(moved.has_arc(i, i + 1) for i in range(m)))
            base_parity = sum(1 for b in pattern if not b) % 2
            same_parity = {
                candidate
                for candidate in product((True, False), repeat=m)
                if sum(1 for b in candidate if not b) % 2 == base_parity
            }
            assert reached == same_parity


def test_config_detection_kinds():
    tree = OrientedGraph(4, ((0, 1), (1, 2), (2, 3)))
    cfg = find_reducible_config(tree)
    assert cfg.kind is ConfigKind.DEGREE_AT_MOST_ONE and cfg.squares == (0,)

    # a long subdivided edge between two hubs of degree three
    hubs = OrientedGraph(
        9,
        (
            (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (6, 1),
            (1, 7), (1, 8), (7, 2), (8, 3),
        ),
    )
    cfg = find_reducible_config(hubs)
    assert cfg.kind is ConfigKind.ADJACENT_DEGREE_TWO_PAIR

    # 3-star with each edge subdivided once: center has three degree-2 neighbors
    star = OrientedGraph(
        7, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6))
    )
    # leaves 4, 5, 6 have degree 1, so kind (i) wins first; remove them
    trimmed = OrientedGraph(7, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 5), (5, 6), (6, 4)))
    cfg = find_reducible_config(trimmed)
    assert cfg.kind is ConfigKind.DEGREE_THREE_TWO_DEGREE_TWO
    assert cfg.squares[2] == 0  # the degree-3 center carries the configuration


def test_config_priority_order():
    # a leaf beats an adjacent degree-2 pair when both are present
    g = OrientedGraph(4, ((0, 1), (1, 2), (2, 3)))
    assert find_reducible_config(g).kind is ConfigKind.DEGREE_AT_MOST_ONE


def test_config_absent_on_dense_graphs():
    for t in enumerate_tournaments(4):
        assert find_reducible_config(t) is None


# a hub with 40 legs of three vertices: every deletion is a leaf of kind (i)
SPIDER = OrientedGraph(
    1 + 3 * 40,
    tuple((0, 1 + 3 * i) for i in range(40))
    + tuple((1 + 3 * i + j, 2 + 3 * i + j) for i in range(40) for j in range(2)),
)


# cubic graphs, and the theta graph's three parallel edges, as edge lists
_CUBIC = {
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    "K33": [(a, b) for a in range(3) for b in range(3, 6)],
    "prism": [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
    "theta": [(0, 1)] * 3,
}


@st.composite
def reducible_graphs(draw) -> OrientedGraph:
    """A cubic graph or a theta graph with each edge subdivided up to 1-3
    times (parallel theta edges at least once but for one), a few pendant
    paths, each edge oriented at random and the vertices relabelled.  Kind
    (iii) is deleted only when no leaf and no adjacent degree-2 pair is left,
    so it needs every thread to have at most one vertex once the pendant
    paths are gone; longer threads give kind (ii), the paths kind (i)."""
    base = _CUBIC[draw(st.sampled_from(sorted(_CUBIC)))]
    longest = draw(st.integers(1, 3))
    n = max(map(max, base)) + 1
    edges = []
    for i, (a, b) in enumerate(base):
        size = draw(st.integers(1 if (a, b) in base[:i] else 0, longest))
        path = [a, *range(n, n + size), b]
        n += size
        edges += zip(path, path[1:])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, n - 1))
        size = draw(st.integers(1, 2))
        path = [at, *range(n, n + size)]
        n += size
        edges += zip(path, path[1:])
    perm = draw(st.permutations(range(n)))
    return OrientedGraph(n, tuple(
        (perm[a], perm[b]) if draw(st.booleans()) else (perm[b], perm[a]) for a, b in edges
    ))


def _trace_by_scan(g: OrientedGraph) -> list:
    left, trace = set(range(g.n)), []
    while (found := reduction_by_scan(g, left)) is not None:
        trace.append(found)
        left -= set(found[1])
    return trace


@example(SPIDER)
@example(girth8_witness())
@example(random_sparse(60, 1))
@example(random_sparse(200, 2))
@example(random_sparse(500, 3))
@example(random_outerplanar(40, 5, 4))
@example(random_outerplanar(120, 5, 5))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(reducible_graphs())
def test_reductions_match_a_fresh_scan_after_every_deletion(g):
    # the incremental heap and counts must pick what a scan of the remaining
    # graph picks, down to the squares, anchors and senses
    kinds = list(ConfigKind)
    trace = [(kinds.index(c.kind), c.squares, c.anchors, c.senses) for c in _reductions(g)]
    assert trace == _trace_by_scan(g)


def test_the_scanned_shapes_reach_every_kind():
    # the colour corpus deletes almost only kind (i); these shapes reach (iii)
    once = OrientedGraph(10, tuple(
        (a, 4 + i) for i, (a, _) in enumerate(_CUBIC["K4"])
    ) + tuple((4 + i, b) for i, (_, b) in enumerate(_CUBIC["K4"])))
    theta = OrientedGraph(5, ((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)))
    for g in (once, theta):
        assert _trace_by_scan(g)[0][0] == 2


def test_colourings_match_pinned_digest():
    # witnesses and full traces of the reduce/extend colourer, pinned so that a
    # refactor of the reductions or the extension step cannot move them
    graphs = [random_sparse(n, s) for n in (9, 40, 300, 556, 1000, 2000) for s in range(3)]
    results = []
    for g in graphs + [SPIDER, girth8_witness()]:
        cert = push_color_to_paley(g)
        trace = [(c.kind.value, c.squares, c.anchors, c.senses) for c in cert.trace]
        results.append((sorted(cert.witness.push_vector), cert.witness.mapping, trace))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == (
        "0849925f112f5673fcda3ca8b08aafbca25cca575d7855d5c315608f21b9fc21"
    )


def test_discharge_stated_cases():
    # degree-2 vertex between two degree-3 hubs collects 2/3
    g = OrientedGraph(
        9,
        (
            (0, 2), (0, 3), (0, 4), (4, 1), (1, 5), (1, 6),
            (5, 2), (6, 3), (2, 3),
        ),
    )
    report = {r.vertex: r for r in discharge_audit(g).rows}
    assert report[4].degree == 2 and report[4].modified_degree == Fraction(8, 3)
    # degree-3 vertex with exactly one degree-2 neighbor keeps 8/3
    assert report[0].degree == 3 and report[0].modified_degree == Fraction(8, 3)


def test_discharge_high_degree_case():
    # degree-4 hub whose neighbors all have degree 2 keeps 4 - 4/3 = 8/3
    hub = OrientedGraph(
        9,
        (
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 5), (2, 6), (3, 7), (4, 8),
            (5, 6), (6, 7), (7, 8), (8, 5),
        ),
    )
    report = {r.vertex: r for r in discharge_audit(hub).rows}
    assert report[0].degree == 4
    assert report[0].modified_degree == Fraction(8, 3)
    audit = discharge_audit(directed_cycle(4))
    # a bare cycle keeps everything at 2: the rule moves no charge
    assert audit.min_modified_degree == 2
    assert not audit.meets_eight_thirds


def test_discharge_on_config_free_graph_meets_bound():
    for t in enumerate_tournaments(5):
        if find_reducible_config(t) is None:
            assert discharge_audit(t).meets_eight_thirds


def test_extension_tables_complete_and_pinned():
    tables = build_extension_tables()
    assert len(tables.by_kind[ConfigKind.ADJACENT_DEGREE_TWO_PAIR]) == 4 * 4 * 8
    assert len(tables.by_kind[ConfigKind.DEGREE_THREE_TWO_DEGREE_TWO]) == 4 * 4 * 4 * 32
    assert tables.sha256 == _EXPECTED_TABLES_SHA256


def test_shapes_agree_with_extension_tables():
    # every entry of every kind's table must satisfy every arc of the kind's
    # _SHAPES entry under the key's senses, read here without _SEARCH_ORDER
    tables = build_extension_tables()
    target = paley_plus()
    assert set(tables.by_kind) == set(ConfigKind)
    for kind, table in tables.by_kind.items():
        shape = _SHAPES[kind]
        for key, hit in table.items():
            anchors, squares = len(key) - len(shape), len(hit) // 2
            colours = key[:anchors] + hit[squares:]
            pushed = (0,) * anchors + hit[:squares]
            for (a, b), sense in zip(shape, key[anchors:]):
                assert _arc_ok(target, colours[a], colours[b], sense ^ pushed[a] ^ pushed[b])


def test_extension_tables_refuse_a_target_that_cannot_extend(monkeypatch):
    # into the directed triangle, no pushes extend a degree-2 pair between
    # anchors coloured 0 and 1 under senses (0, 0, 1): the builder names the
    # kind and the first key left empty instead of returning a partial table
    monkeypatch.setattr(coloring, "paley_plus", c3)
    build_extension_tables.cache_clear()
    try:
        with pytest.raises(CounterexampleFound) as refused:
            build_extension_tables()
    finally:
        build_extension_tables.cache_clear()
    assert refused.value.detail == "no extension for adjacent-degree-two-pair: key (0, 1, 0, 0, 1)"


def test_color_directed_nine_cycle():
    cert = push_color_to_paley(directed_cycle(9))
    assert cert.target == paley_plus()
    assert len(cert.witness.mapping) == 9


def test_color_rejects_dense_input():
    tournament = enumerate_tournaments(4)[0]
    with pytest.raises(GraphError, match="average degree"):
        push_color_to_paley(tournament)


def test_color_empty_graph():
    cert = push_color_to_paley(OrientedGraph(0))
    assert cert.witness.mapping == ()


def test_color_sparse_instances_and_trace():
    for i in range(8):
        g = random_sparse(random.Random(i).randint(10, 120), seed=i)
        cert = push_color_to_paley(g)
        deleted = [v for cfg in cert.trace for v in cfg.squares]
        assert sorted(deleted) == list(range(g.n))


def test_color_witness_graph_into_apex_triangle_but_not_triangle():
    w = girth8_witness()
    cert = push_color_to_paley(w)
    assert cert.target.n == 4
    refusal = push_chromatic_number(w, max_k=3)
    assert refusal.value is None and refusal.complete and refusal.lower_bound == 4


def test_color_outerplanar_instances():
    for i in range(5):
        g = random_outerplanar(100, 5, seed=i)
        cert = color_outerplanar_g5(g)
        assert cert.target == c3()


def test_color_outerplanar_budget_exhaustion_raises():
    with pytest.raises(InconclusiveSearch):
        color_outerplanar_g5(random_outerplanar(30, 5, seed=4), SearchBudget(max_nodes=1))


def test_color_outerplanar_triangle_itself():
    cert = color_outerplanar_g5(c3())
    assert len(set(cert.witness.mapping)) == 3


def test_color_every_orientation_of_five_cycle():
    for bits in range(1 << 5):
        arcs = tuple(
            (i, (i + 1) % 5) if bits >> i & 1 else ((i + 1) % 5, i)
            for i in range(5)
        )
        cert = color_outerplanar_g5(OrientedGraph(5, arcs))
        assert cert.target == c3()


def test_certificate_rejects_tampering():
    from pushgraph import ColoringCertificate, PushHomWitness

    g = directed_cycle(9)
    cert = push_color_to_paley(g)
    bad = tuple(0 for _ in range(9))
    with pytest.raises(GraphError):
        ColoringCertificate(g, cert.target, PushHomWitness(frozenset(), bad))
