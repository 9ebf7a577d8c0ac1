import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushgraph import (
    GraphError,
    OrientedGraph,
    anti_twinned,
    canonical_code,
    is_isomorphic,
    is_isomorphism,
    push,
    push_equivalent,
    push_orbit,
)
from pushgraph.families import directed_cycle, oriented_path, random_outerplanar, random_sparse, uc4
from pushgraph.isomorphism import _joint_colors, refine_colors
from pushgraph.verify import enumerate_oriented_graphs

from oracles import (
    canonical_code_by_layers,
    disjoint_union,
    iso_by_permutations,
    random_oriented_graph,
    random_regular,
    refine_colors_by_rounds,
    time_limit,
    underlying_colors_by_rounds,
)


def test_identity_isomorphism():
    g = random_oriented_graph(random.Random(1), 6)
    cert = is_isomorphic(g, g)
    assert cert is not None
    assert is_isomorphism(g, g, cert.mapping)


def test_arc_count_mismatch():
    path2 = OrientedGraph(3, ((0, 1), (1, 2)))
    assert is_isomorphic(directed_cycle(3), path2) is None


def test_c4_not_isomorphic_to_uc4():
    assert is_isomorphic(directed_cycle(4), uc4()) is None
    assert iso_by_permutations(directed_cycle(4), uc4()) is None


def test_isomorphic_after_relabeling():
    rng = random.Random(2)
    for _ in range(30):
        g = random_oriented_graph(rng, rng.randint(1, 7))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        cert = is_isomorphic(g, h)
        assert cert is not None
        assert is_isomorphism(g, h, cert.mapping)


def test_search_agrees_with_permutation_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_oriented_graph(rng, n)
        h = random_oriented_graph(rng, n)
        assert (is_isomorphic(g, h) is not None) == (iso_by_permutations(g, h) is not None)


def test_canonical_code_is_relabeling_invariant():
    rng = random.Random(4)
    for _ in range(30):
        g = random_oriented_graph(rng, rng.randint(0, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_code(g) == canonical_code(g.relabel(perm))


def test_canonical_code_separates_all_labeled_four_vertex_graphs():
    # every labeled oriented graph on 4 vertices, grouped by code, must match
    # the pairwise isomorphism verdicts
    graphs = []
    pairs = list(combinations(range(4), 2))
    for assignment in range(3 ** len(pairs)):
        arcs = []
        value = assignment
        for u, v in pairs:
            value, kind = divmod(value, 3)
            if kind == 1:
                arcs.append((u, v))
            elif kind == 2:
                arcs.append((v, u))
        graphs.append(OrientedGraph(4, tuple(arcs)))
    by_code = {}
    for g in graphs:
        by_code.setdefault(canonical_code(g), []).append(g)
    assert len(by_code) == 42  # oriented graph classes on 4 vertices
    reps = [members[0] for members in by_code.values()]
    for members in by_code.values():
        for g in members[1:]:
            assert is_isomorphic(members[0], g) is not None
    for a, b in combinations(reps, 2):
        assert is_isomorphic(a, b) is None


def test_canonical_code_separates_all_five_vertex_classes():
    # dedup by code produced 582 classes; pairwise search confirms every one
    # of the 169071 cross pairs really is non-isomorphic
    classes = enumerate_oriented_graphs(5)
    assert len(classes) == 582
    assert len({canonical_code(g) for g in classes}) == 582
    for g, h in combinations(classes, 2):
        assert is_isomorphic(g, h) is None


def test_canonical_code_push_invariant_quadrilateral():
    base = canonical_code(uc4())
    for bits in range(16):
        vector = [v for v in range(4) if bits >> v & 1]
        assert canonical_code(push(uc4(), vector)) == base


def test_canonical_code_distinguishes_triangles():
    transitive = OrientedGraph(3, ((0, 1), (0, 2), (1, 2)))
    assert canonical_code(directed_cycle(3)) != canonical_code(transitive)


def test_canonical_code_size_limit():
    with pytest.raises(GraphError, match="limit"):
        canonical_code(OrientedGraph(20))


def test_canonical_code_on_symmetric_doubled_graphs():
    # anti-twinned graphs carry a global twin-swap automorphism and lifted
    # push symmetries; codes must still collapse exactly the push classes
    rng = random.Random(6)
    for _ in range(12):
        g = random_oriented_graph(rng, rng.randint(1, 5))
        s = [v for v in range(g.n) if rng.random() < 0.5]
        h = push(g, s)
        perm = list(range(2 * g.n))
        rng.shuffle(perm)
        assert canonical_code(anti_twinned(g)) == canonical_code(
            anti_twinned(h).relabel(perm)
        )


def test_canonical_code_of_edgeless_graphs_returns():
    # 16 mutual twins: one vertex order to try, not 16! of them
    expected = ("16|" + ",".join(str(4**k) for k in range(16))).encode()
    with time_limit(5):
        assert canonical_code(OrientedGraph(16)) == expected
        assert canonical_code(anti_twinned(OrientedGraph(8))) == expected


def test_canonical_code_of_disjoint_directed_cycles_returns():
    # one colour class of 16 vertices and no twins: without the automorphisms
    # found on the way, the search tried orders for about 35 s
    g = disjoint_union([directed_cycle(4)] * 4)
    with time_limit(2):
        assert canonical_code(g) == canonical_code(g.relabel(list(range(16))[::-1]))


def _qr7() -> OrientedGraph:
    """The Paley tournament on Z_7: i -> j iff j - i is a square mod 7."""
    return OrientedGraph(7, tuple((i, (i + d) % 7) for i in range(7) for d in (1, 2, 4)))


SYMMETRIC = (
    *(disjoint_union([directed_cycle(size)] * count)
      for size in range(3, 13) for count in range(1, 12 // size + 1)),
    *(OrientedGraph(n) for n in (1, 5, 12, 16)),
    _qr7(),
    anti_twinned(_qr7()),
)


@st.composite
def code_pairs(draw):
    """A random graph on up to 12 vertices, the anti-twinned graph of one on
    up to 6, or a symmetric graph; with a relabelled copy."""
    kind = draw(st.sampled_from(("random", "anti-twinned", "symmetric")))
    if kind == "symmetric":
        g = draw(st.sampled_from(SYMMETRIC))
    else:
        n = draw(st.integers(0, 12 if kind == "random" else 6))
        density = draw(st.sampled_from((0.1, 0.3, 0.5, 0.8, 1.0)))
        g = random_oriented_graph(random.Random(draw(st.integers(0, 2**32))), n, density)
        if kind == "anti-twinned":
            g = anti_twinned(g)
    return g, g.relabel(draw(st.permutations(range(g.n))))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(code_pairs())
def test_canonical_code_matches_the_layer_search(pair):
    g, h = pair
    assert canonical_code(g) == canonical_code(h) == canonical_code_by_layers(g)


@st.composite
def twin_heavy_graphs(draw) -> OrientedGraph:
    """An edgeless graph, an out-star with some leaves reversed, or a random
    graph with duplicated vertices; or the anti-twinned graph of one."""
    doubled = draw(st.booleans())
    max_n = 3 if doubled else 7
    kind = draw(st.sampled_from(("edgeless", "star", "duplicates")))
    if kind == "edgeless":
        g = OrientedGraph(draw(st.integers(0, max_n)))
    elif kind == "star":
        leaves = draw(st.lists(st.booleans(), max_size=max_n - 1))
        g = OrientedGraph(
            len(leaves) + 1,
            tuple((0, i) if out else (i, 0) for i, out in enumerate(leaves, 1)),
        )
    else:
        n = draw(st.integers(1, max_n))
        arcs = set()
        for u, v in combinations(range(n), 2):
            sense = draw(st.sampled_from((0, 0, 1, 2)))
            if sense:
                arcs.add((u, v) if sense == 1 else (v, u))
        for _ in range(draw(st.integers(0, max_n - n))):
            # the new vertex copies the whole neighbourhood of an old one
            x = draw(st.integers(0, n - 1))
            arcs |= {(n, v) for u, v in arcs if u == x} | {(u, n) for u, v in arcs if v == x}
            n += 1
        g = OrientedGraph(n, tuple(arcs))
    return anti_twinned(g) if doubled else g


def _one_arc_changed(pick, g: OrientedGraph, changes) -> OrientedGraph:
    """g with one arc reversed or moved to a non-adjacent pair, as picked
    from changes ("none" keeps g); an arcless g is kept.  pick(options)
    returns one of a sequence of options."""
    arcs = list(g.arcs)
    change = pick(changes) if arcs else "none"
    if change != "none":
        u, v = arcs.pop(pick(range(len(arcs))))
        if change == "reverse":
            arcs.append((v, u))
        else:
            adjacent = {frozenset(a) for a in g.arcs}
            free = [p for p in combinations(range(g.n), 2) if frozenset(p) not in adjacent]
            arcs.append(pick(free) if free else (u, v))
    return OrientedGraph(g.n, tuple(arcs))


def _drawing(draw):
    return lambda options: draw(st.sampled_from(options))


@st.composite
def twin_heavy_pairs(draw):
    """A twin-heavy graph and a relabelled copy, perhaps with one arc reversed
    or moved to a non-adjacent pair."""
    g = draw(twin_heavy_graphs())
    changed = _one_arc_changed(_drawing(draw), g, ("none", "reverse", "move"))
    return g, changed.relabel(draw(st.permutations(range(g.n))))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(twin_heavy_pairs())
def test_twin_heavy_graphs_agree_with_permutation_oracle(pair):
    g, h = pair
    isomorphic = iso_by_permutations(g, h) is not None
    cert = is_isomorphic(g, h)
    assert (cert is not None) == isomorphic
    if cert is not None:
        assert is_isomorphism(g, h, cert.mapping)
    assert (canonical_code(g) == canonical_code(h)) == isomorphic


@st.composite
def refinement_inputs(draw) -> OrientedGraph:
    """A random oriented graph on up to 40 vertices, a disjoint union of up
    to three (some edgeless), a twin-heavy graph, or a 3-regular graph on up
    to 40 vertices, alone (one start class) or beside a directed path; all
    but the twin-heavy ones perhaps anti-twinned."""
    kind = draw(st.sampled_from(("random", "union", "twins", "regular")))
    if kind == "twins":
        return draw(twin_heavy_graphs())

    def random_graph(max_n):
        n = draw(st.integers(0, max_n))
        density = draw(st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.4, 0.7)))
        return random_oriented_graph(random.Random(draw(st.integers(0, 2**32))), n, density)

    if kind == "random":
        g = random_graph(40)
    elif kind == "regular":
        g = random_regular(2 * draw(st.integers(2, 20)), 3, draw(st.integers(0, 2**32)))
        if draw(st.booleans()):
            g = disjoint_union([g, oriented_path("+" * draw(st.integers(1, 12)))])
    else:
        g = disjoint_union([random_graph(14) for _ in range(draw(st.integers(1, 3)))])
    return anti_twinned(g) if draw(st.booleans()) else g


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(refinement_inputs())
def test_refinement_matches_signing_every_vertex_every_round(g):
    assert refine_colors(g) == refine_colors_by_rounds(g)


@st.composite
def refinement_pairs(draw):
    """A graph from refinement_inputs with three relabelled copies: of the
    graph itself, of a push of it, and of it with one arc reversed or moved."""
    g = draw(refinement_inputs())
    pushed = push(g, draw(st.sets(st.integers(0, g.n - 1))) if g.n else ())
    changed = _one_arc_changed(_drawing(draw), g, ("reverse", "move"))
    return g, *(c.relabel(draw(st.permutations(range(g.n)))) for c in (g, pushed, changed))


def _same_partition(a, b) -> bool:
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(refinement_pairs())
def test_pair_refinement_keeps_each_partition_and_refuses_only_non_equivalent_pairs(case):
    # the directed pair refinement (is_isomorphic) against the permutation
    # oracle, the underlying one (push_equivalent) against the push orbits
    g, relabelled, pushed, changed = case
    for mode, own, search, copies, equivalent in (
        (False, refine_colors_by_rounds(g), is_isomorphic, (relabelled,),
         lambda h: iso_by_permutations(g, h) is not None),
        (True, underlying_colors_by_rounds(g), push_equivalent, (relabelled, pushed),
         lambda h: canonical_code(h) in push_orbit(g)),
    ):
        for h in (relabelled, pushed, changed):
            joint = _joint_colors(g, h, mode)
            if joint is not None:
                assert _same_partition(joint[: g.n], own)
                assert mode or _same_partition(joint, refine_colors_by_rounds(disjoint_union([g, h])))
            found = search(g, h)
            if any(h is copy for copy in copies):
                assert joint is not None and found is not None
            if found is None and g.n <= 7:
                assert not equivalent(h)


def test_pair_refinement_refutes_a_path_against_a_spider_by_degrees():
    # the same order and size, but the spider has a degree-3 vertex and
    # three leaves, so its degree classes refute the pair before any split
    n = 8000
    path = OrientedGraph(n, tuple((v, v + 1) for v in range(n - 1)))
    legs = [range(1, 3), range(3, 5), range(5, n)]
    spider = OrientedGraph(
        n, tuple((v - 1 if v != leg[0] else 0, v) for leg in legs for v in leg)
    )
    with time_limit(2):
        assert is_isomorphic(path, spider) is None
        assert push_equivalent(path, spider) is None


def test_pair_refinement_splits_long_paths_in_near_linear_time():
    # a path against a 5-cycle beside a path: every class stays balanced
    # until the partition is stable, which rounds of re-signing every class
    # reach in quadratic time; then a relabelled copy, found by both searches
    n = 8000
    path = oriented_path("+" * (n - 1))
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    copy = path.relabel(perm)
    cycle_and_path = disjoint_union([directed_cycle(5), oriented_path("+" * (n - 6))])
    with time_limit(2):
        assert push_equivalent(path, cycle_and_path) is None
        assert push_equivalent(path, copy) is not None
        assert is_isomorphic(path, copy) is not None


def test_mid_size_pairs_agree_with_networkx():
    # networkx is a second opinion at sizes the permutation oracle cannot
    # reach: its VF2 (DiGraphMatcher) on relabelled copies, isomorphic by
    # construction, and its VF2++ on one-arc changes, which VF2 can take
    # minutes to refuse; every certificate is re-verified in is_isomorphic
    nx = pytest.importorskip("networkx")

    def digraph(g):
        d = nx.DiGraph()
        d.add_nodes_from(range(g.n))
        d.add_edges_from(g.arcs)
        return d

    rng = random.Random(20150826)
    for n in (20, 33, 54, 90, 140, 200):
        for g in (random_sparse(n, n), random_outerplanar(n, 5, n)):
            perm = list(range(n))
            rng.shuffle(perm)
            copy = g.relabel(perm)
            assert nx.algorithms.isomorphism.DiGraphMatcher(digraph(g), digraph(copy)).is_isomorphic()
            assert is_isomorphic(g, copy) is not None
            for _ in range(3):
                h = _one_arc_changed(rng.choice, g, ("reverse", "move")).relabel(perm)
                assert (is_isomorphic(g, h) is not None) == nx.vf2pp_is_isomorphic(digraph(g), digraph(h))


def _assert_anti_twinned_colors_are_doubled(g):
    doubled = underlying_colors_by_rounds(g) * 2
    assert refine_colors(anti_twinned(g)) == doubled
    assert refine_colors_by_rounds(anti_twinned(g)) == doubled


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(refinement_inputs())
def test_anti_twinned_colors_are_the_underlying_colors_doubled(g):
    _assert_anti_twinned_colors_are_doubled(g)


def test_anti_twinned_colors_are_doubled_on_every_small_class():
    for n in range(6):
        for g in enumerate_oriented_graphs(n):
            _assert_anti_twinned_colors_are_doubled(g)


def _pinned_pairs():
    """Pairs whose is_isomorphic certificates are pinned below: every class
    with n <= 5 against a relabelling, its anti-twinned graph against that of
    a pushed relabelling and against that of the next class of the same
    shape, and sparse and outerplanar graphs with n = 20..68."""
    rng = random.Random(20150826)

    def pushed_copy(g):
        vector = [v for v in range(g.n) if rng.random() < 0.5]
        perm = list(range(g.n))
        rng.shuffle(perm)
        return push(g, vector).relabel(perm)

    classes = [g for n in range(6) for g in enumerate_oriented_graphs(n)]
    pairs = []
    for g in classes:
        perm = list(range(g.n))
        rng.shuffle(perm)
        pairs.append((g, g.relabel(perm)))
        pairs.append((anti_twinned(g), anti_twinned(pushed_copy(g))))
    for a, b in zip(classes, classes[1:]):
        if (a.n, len(a.arcs)) == (b.n, len(b.arcs)):
            pairs.append((anti_twinned(a), anti_twinned(b)))
    for n in (20, 32, 44, 56, 68):
        for g in (random_outerplanar(n, 5, n), random_sparse(n, n)):
            pairs.append((anti_twinned(g), anti_twinned(pushed_copy(g))))
    return pairs


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_codes_and_certificates_match_pinned_digests():
    # digests recorded from the search without twin pruning: the canonical
    # codes (and so the class order of enumerate_oriented_graphs) and the
    # first certificate found must not move
    classes = [g for n in range(6) for g in enumerate_oriented_graphs(n)]
    assert _sha256(canonical_code(g).decode() for g in classes) == (
        "10443d1285e9f39c946002dafb77d9a1582e04292720d995f79cd578cb651584"
    )
    assert _sha256(canonical_code(anti_twinned(g)).decode() for g in classes) == (
        "545873691be84c4696edc74a30b290a1713c4aec30732ea75f50b75d082577d4"
    )
    certs = [is_isomorphic(g, h) for g, h in _pinned_pairs()]
    assert len(certs) == 1545 and sum(c is not None for c in certs) == 1355
    assert _sha256(repr(c and c.mapping) for c in certs) == (
        "9c2e886d7e7b57ad51df4a4a66a777d56ef9157b9c9bcc983858967816c19623"
    )
