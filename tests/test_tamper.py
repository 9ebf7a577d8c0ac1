"""Tamper rejection for every checker that accepts a certificate from outside.

Each case starts from a valid certificate on a small drawn graph, which the
checker must accept, and changes one entry.  The checker must then accept
the copy exactly when an arc-by-arc oracle of tests/oracles.py finds it
valid: a changed entry can leave a certificate valid (a swapped isomorphism
can be another one), so the test compares the two verdicts instead of
expecting a refusal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushgraph import (
    ColoringCertificate,
    GraphError,
    IsoCertificate,
    OrientedGraph,
    PushHomWitness,
    SplitCertificate,
    is_homomorphism,
    is_isomorphism,
    repair_isomorphism,
    split_graph,
    transfer,
)
from pushgraph.push import _maps_pushed_arcs, fold_to_push_witness

from oracles import anti_twinned_by_hand, iso_by_arcs, maps_arcs, push_by_hand, splits_by_hand


def _graph(draw, min_n: int, max_n: int) -> OrientedGraph:
    """A graph on min_n to max_n vertices, each pair drawn as no arc or an
    arc either way."""
    n = draw(st.integers(min_n, max_n))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            sense = draw(st.integers(0, 2))
            if sense:
                arcs.append((u, v) if sense == 1 else (v, u))
    return OrientedGraph(n, tuple(arcs))


def _push_hom(draw):
    """A target h on 1 to 4 vertices, an image in h for each of 1 to 7
    source vertices, a push vector, and a source g of drawn arcs that the
    image sends onto arcs of h once g is pushed at the vector."""
    h = _graph(draw, 1, 4)
    image = tuple(draw(st.lists(st.integers(0, h.n - 1), min_size=1, max_size=7)))
    n = len(image)
    vector = frozenset(draw(st.sets(st.integers(0, n - 1))))
    arcs = set(h.arcs)
    g = OrientedGraph(n, tuple(
        (u, v)
        for u in range(n)
        for v in range(n)
        if ((image[v], image[u]) if (u in vector) != (v in vector) else (image[u], image[v]))
        in arcs and draw(st.booleans())
    ))
    return g, h, vector, image


def _tamper(draw, entries: tuple, size: int, bijective: bool = False) -> tuple:
    """entries with one position set to a drawn value in -1..size, whose
    ends are out of range; in a bijective certificate a value already present
    trades places with the one it replaces, so a permutation stays one."""
    entries = list(entries)
    i = draw(st.integers(0, len(entries) - 1))
    x = draw(st.integers(-1, size))
    if bijective and x in entries:
        j = entries.index(x)
        entries[i], entries[j] = x, entries[i]
    else:
        entries[i] = x
    return tuple(entries)


def _accepts(check, error):
    """check as a verdict: False when it raises error."""

    def verdict(cert) -> bool:
        try:
            check(cert)
        except error:
            return False
        return True

    return verdict


# each case draws (checker verdict, oracle verdict, valid certificate, tampered copy)


def _is_homomorphism(draw):
    g, h, vector, image = _push_hom(draw)
    g = push_by_hand(g, vector)
    return (
        lambda m: is_homomorphism(g, h, m), lambda m: maps_arcs(g, h, m),
        image, _tamper(draw, image, h.n),
    )


def _transfer(draw):
    g, h, vector, image = _push_hom(draw)
    g = push_by_hand(g, vector)
    target_push = draw(st.sets(st.integers(0, h.n - 1)))
    return (
        _accepts(lambda m: transfer(g, h, m, target_push), GraphError),
        lambda m: maps_arcs(g, h, m), image, _tamper(draw, image, h.n),
    )


def _coloring_certificate(draw):
    # the certificate is the pair (push vector, mapping); one push bit or
    # one image changes
    g, h, vector, image = _push_hom(draw)
    if draw(st.booleans()):
        tampered = (vector ^ {draw(st.integers(0, g.n - 1))}, image)
    else:
        tampered = (vector, _tamper(draw, image, h.n))
    return (
        _accepts(lambda c: ColoringCertificate(g, h, PushHomWitness(*c)), GraphError),
        lambda c: maps_arcs(push_by_hand(g, c[0]), h, c[1]), (vector, image), tampered,
    )


def _maps_pushed_arcs_case(draw):
    # the pair (push vector, mapping) that every push witness is checked
    # through; a push vertex may leave the range, which raises GraphError
    g, h, vector, image = _push_hom(draw)
    if draw(st.booleans()):
        tampered = (vector ^ {draw(st.integers(-1, g.n))}, image)
    else:
        tampered = (vector, _tamper(draw, image, h.n))

    def accepts(c) -> bool:
        try:
            return _maps_pushed_arcs(g, h, *c)
        except GraphError:
            return False

    return (
        accepts,
        lambda c: all(0 <= v < g.n for v in c[0]) and maps_arcs(push_by_hand(g, c[0]), h, c[1]),
        (vector, image), tampered,
    )


def _fold_to_push_witness(draw):
    # a homomorphism into anti_twinned(h): the pushed vertices take primed images
    g, h, vector, image = _push_hom(draw)
    mapping = tuple(w + h.n if v in vector else w for v, w in enumerate(image))
    return (
        _accepts(lambda m: fold_to_push_witness(g, h, m), AssertionError),
        lambda m: maps_arcs(g, anti_twinned_by_hand(h), m),
        mapping, _tamper(draw, mapping, 2 * h.n),
    )


def _is_isomorphism(draw):
    g = _graph(draw, 1, 6)
    perm = tuple(draw(st.permutations(range(g.n))))
    h = g.relabel(perm)
    return (
        lambda m: is_isomorphism(g, h, m), lambda m: iso_by_arcs(g, h, m),
        perm, _tamper(draw, perm, g.n, bijective=True),
    )


def _repair_isomorphism(draw):
    # h is g pushed at vector and relabelled by perm; the isomorphism of the
    # anti-twinned graphs sends v to perm[v]', and v' to perm[v], for v in
    # vector, and v to perm[v] and v' to perm[v]' for the rest
    g = _graph(draw, 1, 5)
    n = g.n
    vector = draw(st.sets(st.integers(0, n - 1)))
    perm = draw(st.permutations(range(n)))
    h = push_by_hand(g, vector).relabel(perm)
    cert = tuple(perm[x % n] + n * ((x < n) == (x % n in vector)) for x in range(2 * n))
    return (
        _accepts(lambda m: repair_isomorphism(g, h, IsoCertificate(m)), GraphError),
        lambda m: iso_by_arcs(anti_twinned_by_hand(g), anti_twinned_by_hand(h), m),
        cert, _tamper(draw, cert, 2 * n, bijective=True),
    )


def _split_graph(draw):
    # g is anti_twinned(half) relabelled by perm, so perm lists part_one
    # and then part_two
    half = _graph(draw, 1, 4)
    k = half.n
    perm = tuple(draw(st.permutations(range(2 * k))))
    g = anti_twinned_by_hand(half).relabel(perm)
    return (
        _accepts(lambda c: split_graph(g, SplitCertificate(c[:k], c[k:])), GraphError),
        lambda c: splits_by_hand(g, c[:k], c[k:]),
        perm, _tamper(draw, perm, 2 * k, bijective=True),
    )


CASES = {
    "ColoringCertificate": _coloring_certificate,
    "_maps_pushed_arcs": _maps_pushed_arcs_case,
    "fold_to_push_witness": _fold_to_push_witness,
    "is_homomorphism": _is_homomorphism,
    "is_isomorphism": _is_isomorphism,
    "repair_isomorphism": _repair_isomorphism,
    "split_graph": _split_graph,
    "transfer": _transfer,
}


@pytest.mark.parametrize("checker", sorted(CASES))
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_tampered_certificate_is_refused_exactly_when_invalid(checker, data):
    accepts, valid, cert, tampered = CASES[checker](data.draw)
    assert valid(cert) and accepts(cert)
    assert accepts(tampered) == valid(tampered)
