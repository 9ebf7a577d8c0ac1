import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushgraph import (
    GraphError,
    IsoCertificate,
    OrientedGraph,
    agree_disagree,
    anti_twinned,
    brute_force_push_hom,
    canonical_code,
    cannot_identify,
    emit_graph,
    is_isomorphic,
    is_splitable,
    parse_push_vector,
    push,
    push_equivalent,
    push_orbit,
    repair_isomorphism,
    split_graph,
)
from pushgraph.families import (
    b0,
    c3,
    directed_cycle,
    random_outerplanar,
    random_sparse,
    uc4,
    zielonka,
    zielonka_half,
)
from pushgraph.hom import enumerate_tournaments
from pushgraph.verify import enumerate_oriented_graphs

from oracles import (
    all_push_homs,
    emit_push_vector,
    push_by_hand,
    random_oriented_graph,
    spans_uc4,
    time_limit,
)


def test_push_empty_set_is_identity():
    g = random_oriented_graph(random.Random(0), 6)
    assert push(g, []) == g


def test_push_is_involution():
    rng = random.Random(1)
    for _ in range(40):
        g = random_oriented_graph(rng, rng.randint(0, 8))
        s = [v for v in range(g.n) if rng.random() < 0.5]
        assert push(push(g, s), s) == g


def test_push_triangle_single_vertex():
    pushed = push(c3(), [1])
    assert set(pushed.arcs) == {(1, 0), (2, 1), (2, 0)}


def test_push_matches_hand_rule():
    rng = random.Random(2)
    for _ in range(40):
        g = random_oriented_graph(rng, rng.randint(1, 8))
        s = [v for v in range(g.n) if rng.random() < 0.5]
        assert push(g, s) == push_by_hand(g, s)


def test_push_complement_symmetry():
    rng = random.Random(3)
    for _ in range(30):
        g = random_oriented_graph(rng, rng.randint(1, 8))
        s = {v for v in range(g.n) if rng.random() < 0.5}
        assert push(g, s) == push(g, set(range(g.n)) - s)


def test_anti_twinned_counts():
    rng = random.Random(4)
    for _ in range(20):
        g = random_oriented_graph(rng, rng.randint(0, 7))
        r = anti_twinned(g)
        assert r.n == 2 * g.n
        assert len(r.arcs) == 4 * len(g.arcs)


def test_anti_twinned_single_arc_is_directed_square():
    r = anti_twinned(OrientedGraph(2, ((0, 1),)))
    assert is_isomorphic(r, directed_cycle(4)) is not None


def test_anti_twinned_triangle_degrees():
    r = anti_twinned(c3())
    assert r.n == 6 and len(r.arcs) == 12
    assert all(r.out_degree(v) == 2 and r.in_degree(v) == 2 for v in range(6))


def test_push_equivalent_to_own_pushes():
    rng = random.Random(5)
    for _ in range(25):
        g = random_oriented_graph(rng, rng.randint(0, 6))
        s = [v for v in range(g.n) if rng.random() < 0.5]
        cert = push_equivalent(g, push(g, s))
        assert cert is not None


def test_square_not_equivalent_to_uc4():
    assert push_equivalent(directed_cycle(4), uc4()) is None
    # oracle: the one-reversed-arc class never appears in the square's orbit
    assert canonical_code(uc4()) not in push_orbit(directed_cycle(4))


def test_three_vertex_tournaments_equivalent():
    a, b = enumerate_tournaments(3)
    cert = push_equivalent(a, b)
    assert cert is not None


def test_repair_keeps_respecting_isomorphism():
    g = c3()
    identity = IsoCertificate(tuple(range(6)))
    assert repair_isomorphism(g, g, identity).mapping == identity.mapping


def test_repair_fixes_pair_mixing_on_edgeless():
    g = OrientedGraph(2)
    # images of the twin halves are tangled: 0->0, 0'->1, 1->0', 1'->1'
    messy = IsoCertificate((0, 2, 1, 3))
    repaired = repair_isomorphism(g, g, messy)
    n = g.n
    for v in range(n):
        expected = repaired.mapping[v] + n if repaired.mapping[v] < n else repaired.mapping[v] - n
        assert repaired.mapping[v + n] == expected


def test_repair_rejects_non_isomorphism():
    g = c3()
    with pytest.raises(GraphError):
        repair_isomorphism(g, g, IsoCertificate((1, 0, 2, 3, 4, 5)))


def test_repair_random_instances_respect_pairs():
    rng = random.Random(6)
    for _ in range(25):
        g = random_oriented_graph(rng, rng.randint(1, 6))
        s = [v for v in range(g.n) if rng.random() < 0.5]
        h = push(g, s)
        found = is_isomorphic(anti_twinned(g), anti_twinned(h))
        assert found is not None
        repaired = repair_isomorphism(g, h, found)
        for v in range(g.n):
            image = repaired.mapping[v]
            twin = image + g.n if image < g.n else image - g.n
            assert repaired.mapping[v + g.n] == twin


def test_split_square_gives_single_arc():
    cert = is_splitable(directed_cycle(4))
    assert cert is not None
    half = split_graph(directed_cycle(4), cert)
    assert half.n == 2 and len(half.arcs) == 1


def test_triangle_and_uc4_not_splitable():
    assert is_splitable(c3()) is None
    assert is_splitable(uc4()) is None


def test_edgeless_split_parity():
    assert is_splitable(OrientedGraph(0)) is not None
    assert is_splitable(OrientedGraph(4)) is not None
    assert is_splitable(OrientedGraph(3)) is None


def test_anti_twinned_always_splitable():
    # the generic search may pick a different split, which is then only
    # push-equivalent to the seed graph, never more
    rng = random.Random(7)
    for _ in range(25):
        g = random_oriented_graph(rng, rng.randint(0, 5))
        r = anti_twinned(g)
        cert = is_splitable(r)
        assert cert is not None
        half = split_graph(r, cert)
        assert push_equivalent(half, g) is not None


def test_canonical_certificate_recovers_seed_exactly():
    from pushgraph import SplitCertificate

    rng = random.Random(12)
    for _ in range(15):
        g = random_oriented_graph(rng, rng.randint(0, 5))
        canonical = SplitCertificate(
            tuple(range(g.n)), tuple(range(g.n, 2 * g.n))
        )
        assert split_graph(anti_twinned(g), canonical) == g


def test_split_of_zielonka3_has_six_vertices():
    z = zielonka(3)
    cert = is_splitable(z)
    assert cert is not None
    assert split_graph(z, cert).n == 6


def test_split_rejects_forged_certificate():
    from pushgraph import SplitCertificate

    # pairs (0, 1) and (2, 3) do not swap neighborhoods in the square
    with pytest.raises(GraphError):
        split_graph(directed_cycle(4), SplitCertificate((0, 2), (1, 3)))


def test_agree_disagree_uc4_diagonal():
    stats = agree_disagree(uc4(), 0, 2)
    assert stats.agree == {3}
    assert stats.disagree == {1}
    assert stats.min_count == 1


def test_agree_disagree_no_common_neighbors():
    g = OrientedGraph(4, ((0, 1), (2, 3)))
    stats = agree_disagree(g, 0, 3)
    assert stats.agree == frozenset() and stats.disagree == frozenset()


def test_agree_disagree_dominated_pair_of_b0():
    stats = agree_disagree(b0(), 3, 7)
    assert len(stats.agree) >= 3 and len(stats.disagree) >= 3


def test_agree_disagree_rejects_equal_vertices():
    with pytest.raises(GraphError):
        agree_disagree(c3(), 1, 1)


def test_pair_statistics_push_invariant():
    rng = random.Random(8)
    for _ in range(30):
        g = random_oriented_graph(rng, rng.randint(2, 7))
        x, y = rng.sample(range(g.n), 2)
        base = agree_disagree(g, x, y)
        s = {v for v in range(g.n) if rng.random() < 0.5}
        moved = agree_disagree(push(g, s), x, y)
        assert moved.max_count == base.max_count
        assert moved.min_count == base.min_count
        if (x in s) == (y in s):
            assert {moved.agree, moved.disagree} == {base.agree, base.disagree}
        else:
            assert moved.agree == base.disagree and moved.disagree == base.agree


@st.composite
def small_oriented_graphs(draw) -> OrientedGraph:
    """An oriented graph on 2 to 7 vertices, each pair absent or an arc of
    either sense."""
    n = draw(st.integers(2, 7))
    arcs = []
    for u, v in combinations(range(n), 2):
        sense = draw(st.sampled_from((None, True, False)))
        if sense is not None:
            arcs.append((u, v) if sense else (v, u))
    return OrientedGraph(n, tuple(arcs))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(small_oriented_graphs())
def test_common_uc4_iff_min_count_positive(g):
    # on a non-adjacent pair, cannot_identify reads agree/disagree counts;
    # the oracle searches every 4-cycle through the pair
    for x, y in combinations(range(g.n), 2):
        if not (g.has_arc(x, y) or g.has_arc(y, x)):
            assert cannot_identify(g, x, y) == spans_uc4(g, x, y)


def test_common_uc4_diagonal_and_path():
    assert cannot_identify(uc4(), 0, 2) and spans_uc4(uc4(), 0, 2)
    path = OrientedGraph(3, ((0, 1), (1, 2)))
    assert not cannot_identify(path, 0, 2) and not spans_uc4(path, 0, 2)


def test_b0_all_non_adjacent_pairs_share_uc4():
    g = b0()
    for x, y in combinations(range(8), 2):
        if g.has_arc(x, y) or g.has_arc(y, x):
            continue
        assert cannot_identify(g, x, y) and spans_uc4(g, x, y)


def test_cannot_identify_adjacent_and_isolated():
    assert cannot_identify(c3(), 0, 1)
    assert not cannot_identify(OrientedGraph(2), 0, 1)


def test_cannot_identify_is_sound():
    # whenever the test fires, no push homomorphism into any small tournament
    # maps the two vertices together
    rng = random.Random(10)
    checked = 0
    for trial in range(15):
        n = 6 if trial < 3 else rng.randint(3, 5)
        g = random_oriented_graph(rng, n, p=0.7)
        blocked = [
            (x, y)
            for x, y in combinations(range(g.n), 2)
            if cannot_identify(g, x, y)
        ]
        if not blocked:
            continue
        max_target = 3 if n == 6 else 4
        for k in range(1, max_target + 1):
            for target in enumerate_tournaments(k):
                for vector, image in all_push_homs(g, target):
                    for x, y in blocked:
                        assert image[x] != image[y]
                        checked += 1
    assert checked > 0


def test_push_orbit_fixed_points_and_limits():
    assert len(push_orbit(uc4())) == 1
    assert len(push_orbit(OrientedGraph(5))) == 1
    with pytest.raises(GraphError):
        push_orbit(OrientedGraph(17))


def test_push_orbit_matches_direct_enumeration():
    rng = random.Random(11)
    for _ in range(10):
        g = random_oriented_graph(rng, rng.randint(1, 5))
        direct = {canonical_code(push_by_hand(g, [v for v in range(g.n) if bits >> v & 1]))
                  for bits in range(1 << g.n)}
        assert set(push_orbit(g)) == direct


@st.composite
def orbit_cases(draw):
    """An oriented tree, forest or random graph on at most 7 vertices, a
    pushed and relabelled copy, and a graph of the same order and arc count."""
    kind = draw(st.sampled_from(("tree", "forest", "random")))
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    if kind == "random":
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    else:
        # each vertex hangs from an earlier one; in a forest, perhaps from none
        low = -1 if kind == "forest" else 0
        edges = [(draw(st.integers(low, v - 1)), v) for v in range(1, n)]
        edges = [(u, v) for u, v in edges if u >= 0]
    other_edges = draw(st.permutations(pairs))[: len(edges)]

    def orient(edges):
        return OrientedGraph(n, tuple(e if draw(st.booleans()) else e[::-1] for e in edges))

    g = orient(edges)
    vector = draw(st.sets(st.integers(0, n - 1)))
    perm = draw(st.permutations(range(n)))
    return g, push(g, vector).relabel(perm), orient(other_edges)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(orbit_cases())
def test_push_equivalent_agrees_with_push_orbit(case):
    # push_orbit canonically codes every push of g and never builds an
    # anti-twinned graph, so it checks the refutation by base-graph colours
    g, copy, other = case
    orbit = push_orbit(g)
    assert canonical_code(copy) in orbit
    for h in (copy, other):
        cert = push_equivalent(g, h)
        assert (cert is not None) == (canonical_code(h) in orbit)
        if cert is not None:
            assert push_by_hand(g, cert.push_vector).relabel(cert.mapping) == h


@st.composite
def twin_heavy_cases(draw):
    """A star, a K2,m, a matching or a small random graph on at most 8
    vertices, each perhaps beside isolated vertices or a second part, with
    random senses; a pushed and relabelled copy; and two graphs on the same
    underlying graph, push-equivalent or not: its senses drawn afresh, and
    the copy with one arc reversed."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("star", "k2m", "matching", "union")))
    size = draw(st.integers(0, n))  # the vertices of the first part
    if kind == "star":
        edges = [(0, v) for v in range(1, size)]
    elif kind == "k2m":
        edges = [(hub, v) for hub in (0, 1) for v in range(2, size)]
    elif kind == "matching":
        edges = [(v, v + 1) for v in range(0, size - 1, 2)]
    else:
        pairs = list(combinations(range(size), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        # the rest of the vertices: edgeless, or a second star
        if draw(st.booleans()):
            edges += [(size, v) for v in range(size + 1, n)]

    def orient(edges):
        return OrientedGraph(n, tuple(e if draw(st.booleans()) else e[::-1] for e in edges))

    g = orient(edges)
    vector = draw(st.sets(st.integers(0, n - 1)))
    perm = draw(st.permutations(range(n)))
    copy = push(g, vector).relabel(perm)
    others = [orient(edges).relabel(perm)]
    if edges:
        others.append(_reverse_one_arc(copy, draw(st.integers(0, len(edges) - 1))))
    return g, copy, others


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(twin_heavy_cases())
def test_push_equivalent_agrees_with_push_orbit_on_twins_and_components(case):
    # push-twins (equal underlying neighbourhoods) and several components
    # are where the search prunes; the orbit never runs the search
    g, copy, others = case
    orbit = push_orbit(g)
    for h in (copy, *others):
        cert = push_equivalent(g, h)
        assert (cert is not None) == (canonical_code(h) in orbit)
        if cert is not None:
            assert push_by_hand(g, cert.push_vector).relabel(cert.mapping) == h


def _reverse_one_arc(g, index):
    arcs = list(g.arcs)
    arcs[index] = arcs[index][::-1]
    return OrientedGraph(g.n, tuple(arcs))


def _double_edge_swap(g, rng):
    """Replace arcs (a, b), (c, d) by (a, d), (c, b), keeping every in- and
    out-degree; None if no draw in 100 gives an oriented graph."""
    arcs = list(g.arcs)
    for _ in range(100):
        i, j = rng.sample(range(len(arcs)), 2)
        (a, b), (c, d) = arcs[i], arcs[j]
        swapped = [arc for k, arc in enumerate(arcs) if k not in (i, j)] + [(a, d), (c, b)]
        try:
            h = OrientedGraph(g.n, tuple(swapped))
        except GraphError:
            continue
        if len(h.arcs) == len(arcs):
            return h
    return None


def test_push_equivalent_agrees_with_the_anti_twin_theorem():
    # the paper's theorem as the oracle: push-equivalent iff the anti-twinned
    # graphs are isomorphic, decided by is_isomorphic on 2n vertices
    verdicts = []
    for n in (32, 64, 128):
        for seed in range(2):
            for g in (random_sparse(n, seed), random_outerplanar(n, 5, seed)):
                rng = random.Random(seed)
                others = [_pushed_copy(g, seed), _double_edge_swap(g, rng)]
                others += [_reverse_one_arc(g, rng.randrange(len(g.arcs))) for _ in range(3)]
                for h in filter(None, others):
                    cert = push_equivalent(g, h)
                    iso = is_isomorphic(anti_twinned(g), anti_twinned(h))
                    assert (cert is None) == (iso is None)
                    if cert is not None:
                        assert push_by_hand(g, cert.push_vector).relabel(cert.mapping) == h
                    verdicts.append(cert is not None)
    # both verdicts occur, so neither side is trivially constant
    assert True in verdicts and False in verdicts


def test_push_vector_file_round_trip():
    text = emit_push_vector({4, 1, 7})
    assert parse_push_vector(text) == {1, 4, 7}
    assert text.splitlines()[0] == "push 3"


def test_push_vector_count_mismatch():
    from pushgraph import FormatError

    with pytest.raises(FormatError, match="announced"):
        parse_push_vector("push 2\nv 1\n")


def test_push_equivalent_beyond_the_recursion_limit():
    # the anti-twinned graphs have 2000 vertices, so a search that recursed
    # once per mapped vertex would overflow Python's default stack
    g = random_outerplanar(1000, 5, 1)
    rng = random.Random(2)
    h = push(g, [v for v in range(g.n) if rng.random() < 0.5])
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = h.relabel(perm)
    with time_limit(30):
        cert = push_equivalent(g, h)
    assert cert is not None
    assert push_by_hand(g, cert.push_vector).relabel(cert.mapping) == h


def _pushed_copy(g, seed):
    rng = random.Random(seed)
    h = push(g, [v for v in range(g.n) if rng.random() < 0.5])
    perm = list(range(g.n))
    rng.shuffle(perm)
    return h.relabel(perm)


def _certificate_digest(certs) -> str:
    lines = (repr((sorted(c.push_vector), c.mapping)) for c in certs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_push_equivalent_certificates_match_pinned_digests():
    # pins the exact push vector and bijection that the search returns, not
    # only that some certificate exists
    classes = [g for n in range(6) for g in enumerate_oriented_graphs(n)]
    certs = [push_equivalent(g, _pushed_copy(g, i)) for i, g in enumerate(classes)]
    assert len(certs) == 635 and None not in certs
    assert _certificate_digest(certs) == (
        "da6d84358e186145a835a9af89b1d0785a4063365ef2df903565c76cdb24a536"
    )
    graphs = [
        family(n)
        for n in (32, 48, 64, 96, 128)
        for family in (lambda n: random_outerplanar(n, 5, n), lambda n: random_sparse(n, n))
    ]
    certs = [push_equivalent(g, _pushed_copy(g, g.n)) for g in graphs]
    assert None not in certs
    assert _certificate_digest(certs) == (
        "f736dd80d2b24d1edbf676796c4ccd522b693ccec5b2ab4d8ea806d5a8e5dda5"
    )


def test_push_equivalent_at_six_hundred_vertices():
    # a search over the 1200-vertex anti-twinned graphs opened about 211,000
    # nodes; the search over the base graph's 600 vertices, an image and a
    # push bit each, opens 600 and takes about 0.01 s on a 2-core Xeon
    g = random_sparse(600, 3)
    h = _pushed_copy(g, 1)
    with time_limit(5):
        cert = push_equivalent(g, h)
    assert push_by_hand(g, cert.push_vector).relabel(cert.mapping) == h
    assert _certificate_digest([cert]) == (
        "86ba01d0654a1315d9add5072d3e6ca6d06b56b7e8a7ce0d6da40c56df6be592"
    )


def test_push_equivalent_has_no_tail_at_a_thousand_vertices_and_beyond():
    # the search over the anti-twinned graphs ran past 10 s on three of the
    # n = 1000 draws and on seven of the n = 1600 draws
    pairs = [
        (g, _pushed_copy(g, p))
        for n in (1000, 1600)
        for g in (random_sparse(n, s) for s in range(4))
        for p in range(2)
    ]
    with time_limit(10):
        certs = [push_equivalent(g, h) for g, h in pairs]
    large = [random_sparse(10_000, 0), random_outerplanar(10_000, 5, 3)]
    large = [(g, _pushed_copy(g, 1)) for g in large]
    with time_limit(30):
        certs += [push_equivalent(g, h) for g, h in large]
    for (g, h), cert in zip(pairs + large, certs):
        assert push_by_hand(g, cert.push_vector).relabel(cert.mapping) == h


def test_zielonka_half_matches_pinned_digest():
    # pins the vertex numbering that `pushgraph gen zielonka-half k` prints
    halves = [zielonka_half(k) for k in range(2, 7)]
    assert [h.n for h in halves] == [k * 2 ** (k - 2) for k in range(2, 7)]
    assert hashlib.sha256("".join(emit_graph(h) for h in halves).encode()).hexdigest() == (
        "b98b80b823d1279f4bc96617a9f000dbc05b35375346df39ae6a330001d1925d"
    )
