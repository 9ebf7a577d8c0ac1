import random
from fractions import Fraction
from itertools import combinations

import pytest

from pushgraph import (
    GraphError,
    OrientedGraph,
    anti_twinned,
    cannot_identify,
    is_isomorphic,
    is_splitable,
    max_average_degree,
    push,
    underlying_girth,
)
from pushgraph.families import (
    b0,
    b0_pair_report,
    c3,
    directed_cycle,
    girth8_witness,
    oriented_path,
    paley_plus,
    random_outerplanar,
    random_sparse,
    two_step_neighborhoods,
    uc4,
    y_gadget,
    zielonka,
    zielonka_half,
    zielonka_weight_split_report,
)

from oracles import girth_by_edge_removal


def test_cycle_is_c3():
    assert directed_cycle(3) == c3()
    with pytest.raises(GraphError):
        directed_cycle(2)


def test_oriented_path_patterns():
    p = oriented_path("++-")
    assert p.arcs == ((0, 1), (1, 2), (3, 2))
    with pytest.raises(GraphError):
        oriented_path("+x")
    with pytest.raises(GraphError):
        oriented_path("")


def test_uc4_shape():
    g = uc4()
    assert g.n == 4 and len(g.arcs) == 4
    # exactly one arc runs against the cyclic direction
    backward = sum(1 for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)] if g.has_arc(v, u))
    assert backward == 1


def test_paley_plus_shape_and_identities():
    g = paley_plus()
    assert g.n == 4 and len(g.arcs) == 6
    assert g.out_neighbors(3) == {0, 1, 2}
    assert g.in_neighbors(3) == frozenset()
    everything = frozenset(range(4))
    for v in range(4):
        steps = two_step_neighborhoods(g, v)
        assert steps.out_out | steps.in_in == everything - {v}
        assert steps.out_in | steps.in_out == everything


def test_zielonka_orders():
    for k in range(2, 6):
        assert zielonka(k).n == k * 2 ** (k - 1)
        assert zielonka_half(k).n == k * 2 ** (k - 2)
    with pytest.raises(GraphError):
        zielonka(1)
    with pytest.raises(GraphError):
        zielonka(7)


def test_zielonka_cross_class_arcs():
    from pushgraph.families import _zielonka_labels

    for k in (2, 3, 4):
        z = zielonka(k)
        labels = list(_zielonka_labels(k))
        for a, b in combinations(range(z.n), 2):
            same_class = labels[a][0] == labels[b][0]
            adjacent = z.has_arc(a, b) or z.has_arc(b, a)
            assert adjacent == (not same_class)


def test_zielonka_splitable_by_generic_search():
    for k in (2, 3, 4):
        assert is_splitable(zielonka(k)) is not None


def test_zielonka_half_rebuilds_full():
    for k in (2, 3, 4):
        assert is_isomorphic(anti_twinned(zielonka_half(k)), zielonka(k)) is not None


def test_zielonka_two_is_directed_square():
    assert is_isomorphic(zielonka(2), directed_cycle(4)) is not None


def test_zielonka_weight_split_reports():
    by_k = {r["k"]: r for r in map(zielonka_weight_split_report, range(2, 6))}
    assert by_k[2]["equal_halves"] and by_k[4]["equal_halves"]
    assert not by_k[3]["equal_halves"] and not by_k[5]["equal_halves"]
    # the complement map sends heavy vectors strictly into the light side
    assert all(by_k[k]["complement_maps_heavy_to_light"] for k in (2, 3, 4, 5))


def test_b0_shape():
    g = b0()
    assert g.n == 8 and len(g.arcs) == 17
    assert g.out_neighbors(7) == frozenset(range(7))
    assert g.in_neighbors(3) == {4, 5, 6, 7}
    assert g.out_neighbors(3) == {0, 1, 2}


def test_b0_pair_report_singles_out_center():
    report = b0_pair_report()
    winners = [row["pair"] for row in report if row["meets_bound"]]
    assert winners == [(3, 7)]


def test_b0_all_pairs_blocked():
    g = b0()
    assert all(cannot_identify(g, x, y) for x, y in combinations(range(8), 2))


def test_y_gadget_shape():
    g = y_gadget()
    assert g.n == 11
    assert g.out_neighbors(0) == frozenset(range(3, 11))
    ring_x = sorted(g.neighbors(0) & g.neighbors(1))
    ring_y = sorted(g.neighbors(0) & g.neighbors(2))
    assert len(ring_x) == 5 and len(ring_y) == 5
    for special, ring in ((1, ring_x), (2, ring_y)):
        inside = set(ring)
        for v in ring:
            assert len(set(g.out_neighbors(v)) & inside) == 1
            assert len(set(g.in_neighbors(v)) & inside) == 1


def test_girth8_witness_shape():
    w = girth8_witness()
    assert w.n == 64
    assert len(w.arcs) == 81
    assert underlying_girth(w) == 8 == girth_by_edge_removal(w)


def test_girth8_witness_parity_invariant():
    # in every presentation each cycle vertex keeps one path pair member with
    # an odd number of arcs against the walk toward the apex
    w = girth8_witness()
    rng = random.Random(0)
    apex = 9
    for _ in range(25):
        s = [v for v in range(w.n) if rng.random() < 0.5]
        moved = push(w, s)
        for u in range(9):
            parities = []
            for start in (10 + 6 * u, 10 + 6 * u + 3):
                chain = [u, start, start + 1, start + 2, apex]
                backward = sum(
                    1 for a, b in zip(chain, chain[1:]) if moved.has_arc(b, a)
                )
                parities.append(backward % 2)
            assert sorted(parities) == [0, 1]


def test_random_outerplanar_girth_and_size():
    rng = random.Random(1)
    for i in range(25):
        n = rng.randint(5, 40)
        g = random_outerplanar(n, 5, seed=i)
        assert g.n == n
        assert underlying_girth(g) >= 5
    g = random_outerplanar(12, 3, seed=7)
    assert underlying_girth(g) >= 3


def test_random_outerplanar_minimal_is_cycle():
    g = random_outerplanar(5, 5, seed=3)
    assert g.n == 5 and len(g.arcs) == 5
    assert underlying_girth(g) == 5


def test_random_outerplanar_rejects_bad_parameters():
    with pytest.raises(GraphError):
        random_outerplanar(4, 5, seed=0)
    with pytest.raises(GraphError):
        random_outerplanar(5, 2, seed=0)


def test_random_sparse_verified_density():
    for i in range(10):
        g = random_sparse(60, seed=i)
        assert g.n == 60
        assert max_average_degree(g) < Fraction(8, 3)


def test_random_sparse_trivia():
    assert random_sparse(1, seed=0).n == 1
    assert max_average_degree(directed_cycle(9)) == 2  # the nine-cycle qualifies
