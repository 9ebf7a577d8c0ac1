import hashlib
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushgraph import (
    GraphError,
    OrientedGraph,
    SearchBudget,
    anti_twinned,
    brute_force_push_hom,
    enumerate_tournaments,
    find_hom,
    find_push_hom,
    is_homomorphism,
    oriented_chromatic_number,
    push,
    push_chromatic_number,
    transfer,
)
from pushgraph.coloring import color_outerplanar_g5
from pushgraph.families import b0, c3, directed_cycle, girth8_witness, random_outerplanar, uc4
from pushgraph.graph import emit_graph
from pushgraph.verify import enumerate_oriented_graphs

from oracles import (
    chromatic_by_tournaments,
    hom_by_enumeration,
    push_by_hand,
    push_hom_by_double_enumeration,
    random_oriented_graph,
    time_limit,
)

hom = importlib.import_module("pushgraph.hom")


@st.composite
def small_graphs(draw, max_n: int = 7, min_n: int = 0) -> OrientedGraph:
    """An oriented graph on min_n to max_n vertices: each pair gets no arc or
    an arc either way, with a drawn chance of an arc."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.sampled_from((0.2, 0.5, 0.8, 1.0)))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.floats(0, 1)) < density:
                arcs.append((u, v) if draw(st.booleans()) else (v, u))
    return OrientedGraph(n, tuple(arcs))


def test_nine_cycle_maps_to_triangle():
    res = find_hom(directed_cycle(9), c3())
    assert res.status == "found"
    assert is_homomorphism(directed_cycle(9), c3(), res.mapping)
    # i -> i mod 3 is one witness; the solver's must verify too
    assert is_homomorphism(directed_cycle(9), c3(), tuple(i % 3 for i in range(9)))


def test_square_refuses_triangle():
    res = find_hom(directed_cycle(4), c3())
    assert res.status == "none"
    assert res.complete
    assert hom_by_enumeration(directed_cycle(4), c3()) is None


def test_self_homomorphism():
    rng = random.Random(0)
    g = random_oriented_graph(rng, 6)
    assert find_hom(g, g).status == "found"


def test_solver_matches_enumeration_oracle():
    rng = random.Random(1)
    for _ in range(60):
        g = random_oriented_graph(rng, rng.randint(0, 5), p=rng.uniform(0.2, 0.9))
        h = random_oriented_graph(rng, rng.randint(0, 3), p=rng.uniform(0.2, 0.9))
        res = find_hom(g, h)
        assert res.complete
        assert (res.mapping is not None) == (hom_by_enumeration(g, h) is not None)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(small_graphs(5), small_graphs(3))
def test_push_solver_matches_double_enumeration(g, h):
    res = find_push_hom(g, h)
    assert res.complete
    assert (res.witness is not None) == (push_hom_by_double_enumeration(g, h) is not None)


def test_push_hom_witness_is_reverified_composition():
    res = find_push_hom(directed_cycle(9), c3())
    assert res.status == "found"
    witness = res.witness
    assert is_homomorphism(
        push(directed_cycle(9), witness.push_vector), c3(), witness.mapping
    )


def test_push_hom_beyond_the_recursion_limit():
    # one choice point per assigned vertex: a search that recursed per
    # vertex would overflow Python's default stack long before 3000
    g = directed_cycle(3000)
    with time_limit(30):
        res = find_push_hom(g, c3())
    assert res.status == "found"
    pushed = push_by_hand(g, res.witness.push_vector)
    assert all(c3().has_arc(res.witness.mapping[u], res.witness.mapping[v]) for u, v in pushed.arcs)


def test_outerplanar_colouring_at_twenty_thousand_vertices():
    # a variable pick that rescans every domain at every node is quadratic
    # here and takes far longer than the limit
    g = random_outerplanar(20000, 5, 1)
    with time_limit(10):
        certificate = color_outerplanar_g5(g)
    assert certificate.source is g


def test_witness_refuses_triangle_with_proof():
    res = find_push_hom(girth8_witness(), c3())
    assert res.status == "none"
    assert res.complete


def test_budget_exhaustion_reported_not_concluded():
    res = find_push_hom(girth8_witness(), c3(), SearchBudget(max_nodes=3))
    assert res.status == "budget-exhausted"
    assert not res.complete


def test_brute_force_agrees_with_reduction():
    rng = random.Random(3)
    for _ in range(30):
        g = random_oriented_graph(rng, rng.randint(0, 6))
        h = random_oriented_graph(rng, rng.randint(0, 4))
        assert (find_push_hom(g, h).witness is not None) == (
            brute_force_push_hom(g, h).witness is not None
        )


def test_brute_force_edge_cases():
    assert brute_force_push_hom(OrientedGraph(3), c3()).witness is not None
    assert brute_force_push_hom(c3(), OrientedGraph(0)).witness is None
    assert brute_force_push_hom(OrientedGraph(0), OrientedGraph(0)).witness is not None
    with pytest.raises(GraphError):
        brute_force_push_hom(OrientedGraph(17), c3())


def test_transfer_trivial_vectors():
    g, h = directed_cycle(9), c3()
    f = tuple(i % 3 for i in range(9))
    assert transfer(g, h, f, []) == frozenset()
    assert transfer(g, h, f, range(3)) == frozenset(range(9))
    assert push(h, range(3)) == h  # pushing every vertex changes nothing


@st.composite
def transfer_instances(draw):
    """A target h on 1 to 4 vertices, an image in h for each of 1 to 9
    source vertices, a source g of drawn arcs that the image sends onto arcs
    of h, and a set of target vertices to push."""
    h = draw(small_graphs(4, min_n=1))
    image = tuple(draw(st.lists(st.integers(0, h.n - 1), min_size=1, max_size=9)))
    arcs = tuple(
        (u, v)
        for u in range(len(image))
        for v in range(len(image))
        if h.has_arc(image[u], image[v]) and draw(st.booleans())
    )
    return OrientedGraph(len(image), arcs), h, image, draw(st.sets(st.integers(0, h.n - 1)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(transfer_instances())
def test_transfer_random_instances(case):
    g, h, image, target_push = case
    vector = transfer(g, h, image, target_push)
    assert is_homomorphism(push(g, vector), push(h, target_push), image)


def test_transfer_rejects_non_homomorphism():
    with pytest.raises(GraphError):
        transfer(directed_cycle(3), c3(), (0, 0, 0), [])


def test_transfer_rejects_an_out_of_range_target_vertex():
    with pytest.raises(GraphError, match="vertex 3 out of range for n=3"):
        transfer(directed_cycle(3), c3(), (0, 1, 2), [3])


def test_tournament_counts():
    assert [len(enumerate_tournaments(k)) for k in range(8)] == [1, 1, 1, 2, 4, 12, 56, 456]
    with pytest.raises(GraphError):
        enumerate_tournaments(8)


def test_tournaments_are_tournaments():
    for k in range(6):
        for t in enumerate_tournaments(k):
            assert t.n == k
            assert len(t.arcs) == k * (k - 1) // 2


def test_oriented_chromatic_values():
    assert oriented_chromatic_number(c3()).value == 3
    assert oriented_chromatic_number(directed_cycle(5)).value == 5
    assert oriented_chromatic_number(OrientedGraph(4)).value == 1
    assert oriented_chromatic_number(OrientedGraph(0)).value == 0


def test_push_chromatic_values():
    assert push_chromatic_number(directed_cycle(9)).value == 3
    assert push_chromatic_number(uc4()).value == 4
    for odd in (3, 5, 7):
        res = push_chromatic_number(directed_cycle(odd), max_k=min(odd, 7))
        assert res.value is not None and res.value >= 3


def test_chromatic_reports_lower_bound_when_out_of_range():
    res = push_chromatic_number(uc4(), max_k=3)
    assert res.value is None
    assert res.lower_bound == 4
    assert res.complete


def test_chromatic_rejects_large_max_k():
    with pytest.raises(GraphError):
        push_chromatic_number(c3(), max_k=8)


def test_chromatic_witnesses_verify():
    res = push_chromatic_number(directed_cycle(9))
    witness = res.witness
    assert is_homomorphism(
        push(directed_cycle(9), witness.push_vector), res.target, witness.mapping
    )
    res2 = oriented_chromatic_number(directed_cycle(5))
    assert is_homomorphism(directed_cycle(5), res2.target, res2.witness)


def test_push_chromatic_is_push_invariant():
    rng = random.Random(5)
    for _ in range(15):
        g = random_oriented_graph(rng, rng.randint(1, 4), p=0.7)
        base = push_chromatic_number(g, max_k=4).value
        for bits in range(1 << g.n):
            s = [v for v in range(g.n) if bits >> v & 1]
            assert push_chromatic_number(push(g, s), max_k=4).value == base


def test_push_chromatic_monotone_under_subgraphs():
    rng = random.Random(6)
    for _ in range(15):
        g = random_oriented_graph(rng, rng.randint(2, 5), p=0.8)
        kept = tuple(a for a in g.arcs if rng.random() < 0.6)
        sub = OrientedGraph(g.n, kept)
        assert (
            push_chromatic_number(sub, max_k=5).value
            <= push_chromatic_number(g, max_k=5).value
        )


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(small_graphs(), st.booleans(), st.integers(1, 300))
def test_chromatic_agrees_with_the_per_tournament_oracle(g, pushing, nodes):
    # one quotient search per order gives the outcome of one solver run per
    # tournament class, and a truncated search never claims more than it
    # proved
    chromatic = push_chromatic_number if pushing else oriented_chromatic_number
    expected = chromatic_by_tournaments(g, 7, pushing)
    res = chromatic(g)
    assert (res.value, res.target, _hit(res.witness), res.lower_bound, res.complete) == (
        expected.value, expected.target, _hit(expected.witness), expected.lower_bound, True
    )
    truncated = chromatic(g, budget=SearchBudget(max_nodes=nodes))
    if truncated.complete:
        assert (truncated.value, truncated.target) == (res.value, res.target)
    else:
        assert truncated.value is None and truncated.lower_bound <= expected.value


def test_a_quotient_yes_without_a_walk_hit_raises(monkeypatch):
    # the walk's verified hit is the one certificate of a positive order, so
    # a wrong "yes" from the quotient search cannot pass
    monkeypatch.setattr(hom, "_quotient_colouring", lambda *args: True)
    with pytest.raises(AssertionError, match="order 0"):
        oriented_chromatic_number(c3())


def test_a_push_answer_is_checked_once_by_the_fold(monkeypatch):
    # a solver that sends every vertex to vertex 0: each push search fails
    # at fold_to_push_witness, its one check, and the oriented walk at find_hom
    monkeypatch.setattr(hom, "_solve", lambda g, h, tracker: (0,) * g.n)
    for search in (
        lambda: find_push_hom(directed_cycle(5), c3()),
        lambda: push_chromatic_number(c3()),
        lambda: color_outerplanar_g5(directed_cycle(5)),
    ):
        with pytest.raises(AssertionError, match="push witness failed re-verification"):
            search()
    with pytest.raises(AssertionError, match="solver produced a non-homomorphism"):
        oriented_chromatic_number(c3())


def test_the_walk_decides_each_order_the_quotient_search_leaves(monkeypatch):
    # what large graphs reach once the quotient search spends its allowance:
    # the walk alone then gives the oracle's outcome, run for run
    def outcome(res):
        return res.value, res.target, _hit(res.witness), res.lower_bound, res.nodes

    monkeypatch.setattr(hom, "_quotient_colouring", lambda *args: hom._UNDECIDED)
    for g in [g for n in range(5) for g in enumerate_oriented_graphs(n)]:
        for pushing in (False, True):
            chromatic = push_chromatic_number if pushing else oriented_chromatic_number
            assert outcome(chromatic(g)) == outcome(chromatic_by_tournaments(g, 7, pushing))


def test_lemma_reduction_on_samples():
    # hom into the anti-twinned target iff a presentation maps directly
    rng = random.Random(7)
    for _ in range(25):
        g = random_oriented_graph(rng, rng.randint(0, 5))
        h = random_oriented_graph(rng, rng.randint(0, 3))
        assert (find_hom(g, anti_twinned(h)).mapping is not None) == (
            brute_force_push_hom(g, h).witness is not None
        )


def test_results_are_deterministic():
    g = random_oriented_graph(random.Random(8), 6)
    first = find_push_hom(g, c3())
    second = find_push_hom(g, c3())
    assert first.witness == second.witness
    assert first.nodes == second.nodes


def test_pushing_the_target_never_helps():
    # allowing a presentation of the target as well (the two-sided reading of
    # a push-class homomorphism) accepts exactly the same pairs as mapping
    # into the fixed target; exhaustive over small classes
    from pushgraph.verify import enumerate_oriented_graphs

    from oracles import push_by_hand

    sources = [g for n in range(5) for g in enumerate_oriented_graphs(n)]
    targets = [h for n in range(4) for h in enumerate_oriented_graphs(n)]
    for g in sources:
        for h in targets:
            one_sided = brute_force_push_hom(g, h).witness is not None
            two_sided = one_sided or any(
                brute_force_push_hom(
                    g, push_by_hand(h, [v for v in range(h.n) if bits >> v & 1])
                ).witness
                is not None
                for bits in range(1, 1 << h.n)
            )
            assert one_sided == two_sided


def _hit(hit):
    return (sorted(hit.push_vector), hit.mapping) if hasattr(hit, "push_vector") else hit


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_solver_results_match_pinned_digests():
    # witnesses and node counts pin the solver's variable and value order
    # and the points where it spends a node; a chromatic outcome (value,
    # target, witness, lower bound, completeness) is pinned apart from its
    # node count, which the quotient search's order sets
    classes = [g for n in range(6) for g in enumerate_oriented_graphs(n)]

    def outcome(res):
        target = res.target and emit_graph(res.target)
        return repr((res.value, target, _hit(res.witness), res.lower_bound, res.complete))

    def pinned(results, outcomes, nodes):
        assert _sha256(outcome(res) for res in results) == outcomes
        assert _sha256(repr(res.nodes) for res in results) == nodes

    pinned(
        [push_chromatic_number(g) for g in classes],
        "aca84325ff004afddde4cc51377abbeddd50313d964515f7a95a5e71ac2b454c",
        "5a57f6c8470ee23c6762ba0a1cf01b8547ed1c635416dfe638b6d4357e9b5b1f",
    )
    pinned(
        [oriented_chromatic_number(g) for g in classes],
        "71e26e087c2417d4cb1423173c1b7f99de646aadfa3fa53cd5045fef4090163e",
        "ba7eb2063712c40c8f91537f56c5fdf2ddfa1278dacba00ec795471560ea6d3b",
    )
    # random 12-vertex graphs make both chromatic searches backtrack
    rng = random.Random(1)
    backtracking = [random_oriented_graph(rng, 12, 0.3) for _ in range(30)]
    pinned(
        [
            search(g)
            for g in backtracking
            for search in (push_chromatic_number, oriented_chromatic_number)
        ],
        "905b890ba43bc90487067c5f47c7ad9b9bbe81a5e25e7f4b464de5550d56e05f",
        "30feb128d2165baf61b38ea5a75a80e9fe07aea39a32ed89ef0cd23cc6658106",
    )
    expected = {
        1: "ff5efdd0c7ddbaa6589e0f3aea30740d66f080775478f419a8db22373d4969c3",
        3: "474dfadde6f89fe6fd2a4c440322889d57e2f7ea084d53d566b01f0bac1d0ff1",
        10**7: "f13117c3de9e076ab892269be243188738babcdb3e1943d910429208504e0b5a",
    }
    sources = classes[::7] + [directed_cycle(9), b0(), girth8_witness()]
    for nodes, digest in expected.items():
        budget = SearchBudget(max_nodes=nodes)
        lines = []
        for g in sources:
            for h in (c3(), uc4(), directed_cycle(5)):
                res = find_hom(g, h, budget)
                lines.append(repr((res.status, res.mapping, res.nodes)))
                res = find_push_hom(g, h, budget)
                lines.append(repr((res.status, _hit(res.witness), res.nodes)))
        assert _sha256(lines) == digest


def test_deep_outerplanar_searches_match_pinned_digests():
    # thousands of choice points with almost no backtracking: the node counts
    # and witnesses pin the variable order along the whole search
    expected = {
        1000: (648, "600ccf8b32e4cfe017de1aa3047965e12fb7f1e9eeecac27980b3712de46ae5c"),
        2000: (1327, "e6f1987bb9a4fc351153b1095dc8c16560441fee8eafd09b4689bfa63f61453a"),
        4000: (2570, "34ed8d91a6111dcc59a61bff1d0a04973aefd0b6694fe85f9dd57bd6086a8da5"),
    }
    for n, (nodes, digest) in expected.items():
        res = find_push_hom(random_outerplanar(n, 5, 1), c3())
        assert res.status == "found"
        assert res.nodes == nodes
        assert _sha256([repr(_hit(res.witness))]) == digest
