import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushgraph import (
    FormatError,
    GraphError,
    OrientedGraph,
    emit_graph,
    max_average_degree,
    parse_graph,
    underlying_girth,
)
from pushgraph.coloring import color_outerplanar_g5, discharge_audit, push_color_to_paley
from pushgraph.density import _peel, mad_less_than
from pushgraph.push import parse_push_vector
from pushgraph.families import (
    directed_cycle,
    girth8_witness,
    oriented_path,
    random_outerplanar,
    random_sparse,
)

from oracles import (
    disjoint_union,
    girth_by_edge_removal,
    mad_by_subset_enumeration,
    random_oriented_graph,
    time_limit,
)


def test_triangle_construction():
    g = OrientedGraph(3, ((0, 1), (1, 2), (2, 0)))
    assert g.n == 3 and len(g.arcs) == 3


def test_rejects_two_cycle():
    with pytest.raises(GraphError, match="2-cycle"):
        OrientedGraph(2, ((0, 1), (1, 0)))


def test_rejects_loop():
    with pytest.raises(GraphError, match="loop"):
        OrientedGraph(1, ((0, 0),))


def test_rejects_out_of_range():
    with pytest.raises(GraphError, match="range"):
        OrientedGraph(2, ((0, 5),))


def test_arcs_deduplicated():
    g = OrientedGraph(2, ((0, 1), (0, 1)))
    assert g.arcs == ((0, 1),)


def test_neighbors_on_triangle():
    g = directed_cycle(3)
    assert g.out_neighbors(0) == {1}
    assert g.in_neighbors(0) == {2}


def test_neighbors_isolated_vertex():
    g = OrientedGraph(1)
    assert g.out_neighbors(0) == frozenset()
    assert g.in_neighbors(0) == frozenset()


def test_neighbors_out_of_range():
    with pytest.raises(GraphError):
        directed_cycle(3).out_neighbors(5)


def test_neighborhoods_disjoint_everywhere():
    rng = random.Random(7)
    for _ in range(40):
        g = random_oriented_graph(rng, rng.randint(1, 9))
        for v in range(g.n):
            assert not g.out_neighbors(v) & g.in_neighbors(v)
            assert v not in g.out_neighbors(v) | g.in_neighbors(v)
            # the adjacency lists against the masks
            assert g.neighbors(v) == g.out_neighbors(v) | g.in_neighbors(v)
            assert g.degree(v) == len(g.neighbors(v))
        for v in (-1, g.n):
            with pytest.raises(GraphError):
                g.degree(v)
            with pytest.raises(GraphError):
                g.neighbors(v)


def test_girth_directed_cycle():
    assert underlying_girth(directed_cycle(9)) == 9


def test_girth_tree_is_infinite():
    tree = OrientedGraph(5, ((0, 1), (0, 2), (2, 3), (3, 4)))
    assert underlying_girth(tree) == math.inf


def test_girth_of_witness_is_eight():
    assert underlying_girth(girth8_witness()) == 8


def test_girth_matches_edge_removal_oracle():
    rng = random.Random(11)
    for _ in range(60):
        g = random_oriented_graph(rng, rng.randint(2, 12), p=rng.uniform(0.1, 0.7))
        assert underlying_girth(g) == girth_by_edge_removal(g)


def test_mad_directed_cycle():
    assert max_average_degree(directed_cycle(9)) == 2


def test_mad_tree_value():
    # a path on n vertices: densest subgraph is the whole tree
    for n in (2, 5, 9):
        path = OrientedGraph(n, tuple((i, i + 1) for i in range(n - 1)))
        assert max_average_degree(path) == Fraction(2 * (n - 1), n)


def test_mad_witness_below_eight_thirds():
    w = girth8_witness()
    value = max_average_degree(w)
    assert value < Fraction(8, 3)
    assert mad_less_than(w, Fraction(8, 3))
    # planar girth-8 graphs obey the Euler bound 2g/(g-2) = 8/3


def test_mad_single_vertex_and_empty_errors():
    assert max_average_degree(OrientedGraph(1)) == 0
    with pytest.raises(GraphError):
        max_average_degree(OrientedGraph(0))


def test_mad_matches_subset_enumeration():
    rng = random.Random(13)
    for _ in range(25):
        g = random_oriented_graph(rng, rng.randint(1, 10), p=rng.uniform(0.2, 0.9))
        assert max_average_degree(g) == mad_by_subset_enumeration(g)
    for _ in range(3):
        g = random_oriented_graph(rng, 14, p=0.5)
        assert max_average_degree(g) == mad_by_subset_enumeration(g)


def test_mad_threshold_agrees_with_exact_value():
    rng = random.Random(17)
    bound = Fraction(8, 3)
    for _ in range(30):
        g = random_oriented_graph(rng, rng.randint(1, 9), p=rng.uniform(0.1, 0.9))
        assert mad_less_than(g, bound) == (max_average_degree(g) < bound)


@st.composite
def core_and_tail_graphs(draw) -> OrientedGraph:
    """Up to 10 vertices: a random core, dense or not, with a randomly
    oriented path hanging off it, so that the densest subgraph is often a
    proper part of the graph."""
    n = draw(st.integers(1, 10))
    core = draw(st.integers(1, n))
    senses = draw(st.sampled_from(((0, 1, 2), (0, 1, 1, 2, 2), (1, 2))))
    arcs = []
    for u, v in combinations(range(core), 2):
        sense = draw(st.sampled_from(senses))
        if sense:
            arcs.append((u, v) if sense == 1 else (v, u))
    for v in range(core, n):
        u = draw(st.integers(0, core - 1)) if v == core else v - 1
        arcs.append((u, v) if draw(st.booleans()) else (v, u))
    return OrientedGraph(n, tuple(arcs))


def _random_tree_arcs(draw, vertices) -> list[tuple[int, int]]:
    """Randomly oriented arcs joining each vertex after the first to an
    earlier one."""
    arcs = []
    for i in range(1, len(vertices)):
        u, v = vertices[draw(st.integers(0, i - 1))], vertices[i]
        arcs.append((u, v) if draw(st.booleans()) else (v, u))
    return arcs


@st.composite
def forests(draw) -> OrientedGraph:
    """Up to 12 vertices in several trees, isolated vertices included, so
    that the 2-core is empty and mad is the largest tree's closed form."""
    n = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    arcs = []
    for start, stop in zip([0, *cuts], [*cuts, n]):
        arcs += _random_tree_arcs(draw, list(range(start, stop)))
    return OrientedGraph(n, tuple(arcs))


@st.composite
def cycle_beside_tree(draw) -> OrientedGraph:
    """A randomly oriented cycle next to a disjoint tree with more vertices:
    the 2-core is the cycle, and the tree is the larger part of the graph."""
    length = draw(st.integers(3, 5))
    n = length + draw(st.integers(length + 1, 12 - length))
    cycle = [(i, (i + 1) % length) for i in range(length)]
    arcs = [(u, v) if draw(st.booleans()) else (v, u) for u, v in cycle]
    arcs += _random_tree_arcs(draw, list(range(length, n)))
    return OrientedGraph(n, tuple(arcs))


def _check_mad_against_subset_enumeration(g: OrientedGraph) -> None:
    mad = max_average_degree(g)
    assert mad == mad_by_subset_enumeration(g)
    assert mad_less_than(g, mad) is False
    assert mad_less_than(g, mad + Fraction(1, 2 * g.n * g.n)) is True


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(core_and_tail_graphs())
def test_mad_and_threshold_agree_with_subset_enumeration(g):
    _check_mad_against_subset_enumeration(g)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(forests(), cycle_beside_tree()))
def test_peeled_mad_and_threshold_agree_with_subset_enumeration(g):
    _check_mad_against_subset_enumeration(g)


@st.composite
def thread_graphs(draw) -> OrientedGraph:
    """Up to 14 vertices, relabelled at random: 1-4 branch vertices, each
    pair joined by one to three threads of 0-5 interior vertices (parallel
    ones need an interior), up to two threads back to a branch vertex, a
    cycle with no branch vertex beside them or not, and pendant trees: the
    shapes that the min cut contracts or the peel removes."""
    limit = 14
    k = draw(st.integers(1, 4))
    n = k
    edges: list[tuple[int, int]] = []

    def chain(ends: list[int], shortest: int, closed: bool = False) -> None:
        nonlocal n
        if n + shortest > limit:
            return
        size = draw(st.integers(shortest, min(5, limit - n)))
        path = [*ends[:1], *range(n, n + size), *ends[1:]]
        n += size
        edges.extend(zip(path, path[1:] + path[:1] if closed else path[1:]))

    for a, b in combinations(range(k), 2):
        for i in range(draw(st.integers(1, 3))):
            chain([a, b], min(i, 1))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, k - 1))
        chain([a, a], 2)
    if draw(st.booleans()):
        chain([], 3, closed=True)
    pendants = draw(st.integers(0, limit - n))
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(n, n + pendants)]
    n += pendants
    perm = draw(st.permutations(range(n)))
    arcs = [(perm[u], perm[v]) if draw(st.booleans()) else (perm[v], perm[u]) for u, v in edges]
    return OrientedGraph(n, tuple(arcs))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(thread_graphs())
def test_thread_contracted_mad_agrees_with_subset_enumeration(g):
    _check_mad_against_subset_enumeration(g)


def test_peel_lists_each_thread_once():
    # a theta graph on branch vertices 0 and 1 (a direct arc and threads
    # through 2 and through 3, 4), a thread 0 -> 5 -> 6 -> 0 back to its
    # start, a pendant vertex 7, and a triangle 8, 9, 10 with no branch vertex
    arcs = [(0, 1), (0, 2), (2, 1), (1, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 0), (7, 5),
            (8, 9), (9, 10), (10, 8)]
    core, branches, threads, forest = _peel(OrientedGraph(11, tuple(arcs)))
    assert core == [0, 1, 2, 3, 4, 5, 6, 8, 9, 10]
    assert branches == [0, 1]
    assert sorted((a, b, tuple(interior)) for a, b, interior in threads) == [
        (0, 0, (5, 6)), (0, 1, ()), (0, 1, (2,)), (0, 1, (4, 3))
    ]
    assert forest == 0


def test_mad_less_than_on_a_lone_cycle():
    # the core has no branch vertex, so the cut has nothing to contract
    for n in (3, 4, 9):
        cycle = directed_cycle(n)
        assert mad_less_than(cycle, Fraction(2)) is False
        assert mad_less_than(cycle, 2 + Fraction(1, 2 * n * n)) is True


def test_mad_at_scale_runs_on_the_branch_graph():
    # a 50,000-vertex graph whose 2-core is mostly threads of degree-2 vertices
    with time_limit(3):
        assert max_average_degree(random_sparse(50_000, 1)) == Fraction(4530, 2021)


def test_mad_beyond_the_recursion_limit():
    # a long path is where a min cut on the whole graph needs one phase per
    # two path vertices; the 2-core peel leaves no cut to run
    with time_limit(10):
        assert max_average_degree(oriented_path("+" * 4999)) == Fraction(4999, 2500)


def test_disjoint_union_counts():
    two = disjoint_union([directed_cycle(3), directed_cycle(3)])
    assert two.n == 6 and len(two.arcs) == 6
    assert disjoint_union([directed_cycle(4)]) == directed_cycle(4)
    assert disjoint_union([]) == OrientedGraph(0)


def test_parse_emit_round_trip():
    rng = random.Random(19)
    for _ in range(25):
        g = random_oriented_graph(rng, rng.randint(0, 10))
        assert parse_graph(emit_graph(g)) == g


def test_parse_empty_graph():
    assert parse_graph("oriented 0\n") == OrientedGraph(0)


def test_parse_comments_and_blanks():
    text = "# named vertices may live here\noriented 2\n\na 0 1  # arc\n"
    assert parse_graph(text) == OrientedGraph(2, ((0, 1),))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("oriented 1\na 0 0\n", "loop"),
        ("oriented 2\na 0 1\na 1 0\n", "2-cycle"),
        ("oriented 2\na 0 1\na 0 1\n", "duplicate"),
        ("oriented 2\na 0 7\n", "range"),
        ("oriented 2\nb 0 1\n", "arc line"),
        ("a 0 1\n", "header"),
        ("", "header"),
    ],
)
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_graph(text)


@pytest.mark.parametrize(
    "parse, text, fragment, line_no",
    [
        (parse_graph, "oriented x\n", "bad vertex count", 1),
        (parse_graph, "oriented -1\n", "negative vertex count", 1),
        (parse_graph, "oriented 2\na 0 b\n", "non-integer endpoint", 2),
        (parse_graph, "oriented 3\na 0 0\nb 1\n", "loop", 2),
        (parse_graph, "# comment only\n\n", "missing 'oriented <n>' header", None),
        (parse_graph, "oriented 2 3\n", "expected header 'oriented <n>'", 1),
        (parse_push_vector, "# comment\npush\n", "expected header", 2),
        (parse_push_vector, "push y\n", "bad vertex count", 1),
        (parse_push_vector, "push 1\nw 3\n", "expected vertex line", 2),
        (parse_push_vector, "push 1\nv x\n", "non-integer vertex", 2),
        (parse_push_vector, "# comment only\n", "missing 'push <k>' header", None),
        (parse_push_vector, "push 2\nv 1\nv 1\n", "duplicate vertex 1", 3),
        (parse_push_vector, "push -1\n", "negative vertex count -1", 1),
    ],
)
def test_format_errors_name_the_first_bad_line(parse, text, fragment, line_no):
    with pytest.raises(FormatError, match=fragment) as exc:
        parse(text)
    assert exc.value.line_no == line_no


def test_parse_error_line_number():
    try:
        parse_graph("oriented 3\na 0 1\na 1 1\n")
    except FormatError as exc:
        assert exc.line_no == 3
    else:
        pytest.fail("expected a format error")


def test_emit_orders_arcs():
    g = OrientedGraph(3, ((2, 0), (0, 1)))
    assert emit_graph(g).splitlines() == ["oriented 3", "a 0 1", "a 2 0"]


def test_linear_scans_build_no_masks():
    # masks cost n bits per vertex; colouring and measuring a large sparse
    # graph must read the O(n + m) adjacency only
    g = random_sparse(2000, 1)
    push_color_to_paley(g)
    max_average_degree(g)
    discharge_audit(g)
    underlying_girth(g)
    o = random_outerplanar(2000, 5, 1)
    color_outerplanar_g5(o)
    max_average_degree(o)
    for graph in (g, o):
        built = {"out_masks", "in_masks"} & set(vars(graph))
        assert not built
