"""Generators for the named graphs this package studies and for random
verification corpora.

Gadget constructors return transcribed arc lists as plain data; the
`verify` suites gadgets-p3 and girth8-lower check their stated structural
properties, and a broken property fails its check with the gadget as the
counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .density import mad_less_than
from .graph import GraphError, OrientedGraph, _bits
from .push import agree_disagree

# random_sparse redraws a candidate failing the density check at most this often
SPARSE_RESAMPLES = 50


def parse_pattern(pattern: str | Iterable[bool]) -> tuple[bool, ...]:
    """Normalize a path pattern; '+'/True means the arc follows the path."""
    if isinstance(pattern, str):
        bits = []
        for ch in pattern:
            if ch == "+":
                bits.append(True)
            elif ch == "-":
                bits.append(False)
            else:
                raise GraphError(f"pattern characters must be '+' or '-', got {ch!r}")
        result = tuple(bits)
    else:
        result = tuple(bool(b) for b in pattern)
    if not result:
        raise GraphError("path pattern must have length at least 1")
    return result


def directed_cycle(n: int) -> OrientedGraph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return OrientedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def c3() -> OrientedGraph:
    return directed_cycle(3)


def oriented_path(pattern: str | Iterable[bool]) -> OrientedGraph:
    """Path on len(pattern)+1 vertices; pattern[i] orients the arc at step i."""
    bits = parse_pattern(pattern)
    arcs = tuple(
        (i, i + 1) if forward else (i + 1, i) for i, forward in enumerate(bits)
    )
    return OrientedGraph(len(bits) + 1, arcs)


def uc4() -> OrientedGraph:
    """The 4-cycle with exactly one arc against the cyclic direction."""
    return OrientedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


@dataclass(frozen=True)
class TwoStepNeighborhoods:
    """The four two-step reachability sets of a vertex, split by arc senses."""

    out_out: frozenset[int]
    in_in: frozenset[int]
    out_in: frozenset[int]
    in_out: frozenset[int]


def two_step_neighborhoods(h: OrientedGraph, v: int) -> TwoStepNeighborhoods:
    """Vertices reachable from v by two steps of each sense combination."""
    h._check_vertex(v)
    out_out = in_in = out_in = in_out = 0
    for c in h.out_neighbors(v):
        out_out |= h.out_masks[c]
        out_in |= h.in_masks[c]
    for c in h.in_neighbors(v):
        in_in |= h.in_masks[c]
        in_out |= h.out_masks[c]
    return TwoStepNeighborhoods(
        frozenset(_bits(out_out)),
        frozenset(_bits(in_in)),
        frozenset(_bits(out_in)),
        frozenset(_bits(in_out)),
    )


def paley_plus() -> OrientedGraph:
    """Directed triangle 0->1->2->0 plus apex 3 dominating all three.

    Its two-step covering identities (same-sense pairs reach everything
    except the start, mixed-sense pairs reach everything) are checked by
    gadgets/apex-triangle-identities.
    """
    return OrientedGraph(4, ((0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)))


def zielonka(k: int) -> OrientedGraph:
    """Star-marked binary vectors; arcs decided by coordinate agreement and
    index order.

    Vertices are the vectors with one starred position i and binary entries
    elsewhere; x in class i beats y in class j > i exactly when x agrees with
    y on the exchanged coordinates (x[j] == y[i]), and loses otherwise.
    """
    if not 2 <= k <= 6:
        raise GraphError("zielonka order parameter must be between 2 and 6")
    labels = list(_zielonka_labels(k))
    index = {lab: pos for pos, lab in enumerate(labels)}
    arcs: list[tuple[int, int]] = []
    for i, xc in labels:
        for j, yc in labels:
            if i >= j:
                continue
            if xc[j] == yc[i]:
                arcs.append((index[(i, xc)], index[(j, yc)]))
            else:
                arcs.append((index[(j, yc)], index[(i, xc)]))
    return OrientedGraph(len(labels), tuple(arcs))


def _zielonka_labels(k: int):
    for i in range(k):
        for bits in range(1 << (k - 1)):
            coords = []
            pos = 0
            for slot in range(k):
                if slot == i:
                    coords.append(None)
                else:
                    coords.append(bits >> pos & 1)
                    pos += 1
            yield (i, tuple(coords))


def _zielonka_complement(label):
    i, coords = label
    return (i, tuple(None if c is None else 1 - c for c in coords))


def zielonka_half(k: int) -> OrientedGraph:
    """Induced half of the star-vector graph on a transversal of complement pairs.

    The transversal keeps the vertices whose first non-starred coordinate is
    0, one from each pair {x, complement(x)}.  That anti-twinning the half
    reproduces the full graph is checked by zielonka/half-rebuild.
    """
    full = zielonka(k)
    transversal = [
        pos
        for pos, (_, coords) in enumerate(_zielonka_labels(k))
        if next(c for c in coords if c is not None) == 0
    ]
    return full.induced(transversal)[0]


def zielonka_weight_split_report(k: int) -> dict:
    """Status of the weight-threshold split (coordinate sum >= ceil(k/2)).

    Reported, never asserted: the threshold split does not bisect complement
    pairs for odd k, while the complement transversal always does.
    """
    labels = list(_zielonka_labels(k))
    threshold = -(-k // 2)
    heavy = [lab for lab in labels if sum(c for c in lab[1] if c is not None) >= threshold]
    heavy_set = set(heavy)
    complement_leaves = all(_zielonka_complement(lab) not in heavy_set for lab in heavy)
    return {
        "k": k,
        "order": len(labels),
        "heavy_size": len(heavy),
        "light_size": len(labels) - len(heavy),
        "equal_halves": 2 * len(heavy) == len(labels),
        "complement_maps_heavy_to_light": complement_leaves,
    }


def b0() -> OrientedGraph:
    """8-vertex, 17-arc planar gadget whose push class needs 8 colors.

    Vertex i is x_{i+1} of the drawing: 3 receives from 4, 5, 6 and sends to
    0, 1, 2; paths 0->1->2 and 4->5->6; vertex 7 sends to everything else.
    gadgets/order8-rigid checks that every pair is non-identifiable, and
    gadgets/order8-dominating-pair that some pair with vertex 7 agrees and
    disagrees on >= 3 vertices each.
    """
    return OrientedGraph(
        8,
        (
            (4, 3), (5, 3), (6, 3),
            (3, 0), (3, 1), (3, 2),
            (0, 1), (1, 2),
            (4, 5), (5, 6),
            (7, 0), (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6),
        ),
    )


def b0_pair_report(g: OrientedGraph | None = None) -> list[dict]:
    """Agree/disagree statistics of every pair with the dominating vertex 7.

    The drawing's prose names one such pair with both sets of size >= 3 but
    mislabels it; the report computes all candidates instead of guessing.
    """
    if g is None:
        g = b0()
    rows = []
    for x in range(7):
        stats = agree_disagree(g, x, 7)
        rows.append(
            {
                "pair": (x, 7),
                "agree": sorted(stats.agree),
                "disagree": sorted(stats.disagree),
                "meets_bound": len(stats.agree) >= 3 and len(stats.disagree) >= 3,
            }
        )
    return rows


def y_gadget() -> OrientedGraph:
    """11-vertex planar gadget: apex 0 dominating an 8-vertex ring, with
    special vertices 1 and 2 attached so that the common neighborhoods of
    (0, 1) and of (0, 2) each induce a directed 5-cycle.

    gadgets/forced-pair-overlap checks that 0, 1, 2 are pairwise
    non-identifiable, both common neighborhoods induce directed 5-cycles,
    and each 5-cycle's vertices are pairwise non-identifiable.
    """
    apex, x, y = 0, 1, 2
    a, b, c, d, e, f, gg, h = range(3, 11)
    return OrientedGraph(
        11,
        tuple((apex, w) for w in range(3, 11))
        + (
            (x, a), (x, b), (x, c), (x, e), (d, x),
            (y, e), (y, gg), (y, d), (y, f), (h, y),
            (a, b), (b, c), (c, d), (d, e), (e, a),
            (e, f), (f, gg), (gg, h), (h, d),
        ),
    )


def girth8_witness() -> OrientedGraph:
    """Directed 9-cycle plus an apex, each cycle vertex tied to the apex by a
    fully directed 4-path and by a 4-path with one reversed arc.

    64 vertices, 81 arcs, underlying girth exactly 8 (checked by
    girth8/witness-shape).  In every presentation each path pair keeps one
    path with an odd number of reversed arcs, which blocks 3-colorability of
    the push class.
    """
    arcs: list[tuple[int, int]] = [(u, (u + 1) % 9) for u in range(9)]
    apex = 9
    # both chains of a cycle vertex get consecutive ids: under the solver's
    # static order, whichever of the pair is infeasible is then reached
    # before the later cycle vertices' chains multiply the search
    for u in range(9):
        q1 = 10 + 6 * u
        arcs += [(u, q1), (q1, q1 + 1), (q1 + 1, q1 + 2), (apex, q1 + 2)]
        p1 = q1 + 3
        arcs += [(u, p1), (p1, p1 + 1), (p1 + 1, p1 + 2), (p1 + 2, apex)]
    return OrientedGraph(64, tuple(arcs))


def random_outerplanar(n: int, min_girth: int, seed: int) -> OrientedGraph:
    """Random outerplanar graph with underlying girth >= min_girth.

    Grown constructively: an outer cycle of length min_girth, then ears
    subdividing the outer boundary (long enough to keep the girth) and
    pendant paths, so outerplanarity and girth hold by construction.
    Orientation is uniform per edge.
    """
    if not (n >= min_girth >= 3):
        raise GraphError(f"infeasible parameters n={n}, min_girth={min_girth}")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = [(i, (i + 1) % min_girth) for i in range(min_girth)]
    boundary = list(range(min_girth))
    count = min_girth
    while count < n:
        remaining = n - count
        if remaining >= min_girth - 2 and rng.random() < 0.6:
            interior = rng.randint(min_girth - 2, min(remaining, min_girth + 2))
            idx = rng.randrange(len(boundary))
            u = boundary[idx]
            w = boundary[(idx + 1) % len(boundary)]
            chain = [u] + [count + i for i in range(interior)] + [w]
            edges.extend(zip(chain, chain[1:]))
            boundary[idx + 1:idx + 1] = chain[1:-1]
            count += interior
        else:
            length = rng.randint(1, min(remaining, 3))
            anchor = rng.randrange(count)
            chain = [anchor] + [count + i for i in range(length)]
            edges.extend(zip(chain, chain[1:]))
            count += length
    arcs = tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v in edges)
    return OrientedGraph(n, arcs)


def random_sparse(n: int, seed: int) -> OrientedGraph:
    """Random graph with maximum average degree provably below 8/3.

    A random tree plus a few extra connections, each subdivided at least
    twice; candidates failing the exact density check are resampled.
    """
    if n < 1:
        raise GraphError("random_sparse needs at least one vertex")
    rng = random.Random(seed)
    bound = Fraction(8, 3)
    for _ in range(SPARSE_RESAMPLES):
        extras = rng.randint(0, max(0, n // 12))
        interior = [rng.randint(2, 4) for _ in range(extras)]
        while sum(interior) > n - 2 and interior:
            interior.pop()
        tree_size = n - sum(interior)
        edges: list[tuple[int, int]] = [
            (rng.randrange(i), i) for i in range(1, tree_size)
        ]
        fresh = tree_size
        for size in interior:
            u = rng.randrange(tree_size)
            w = rng.randrange(tree_size)
            while w == u and tree_size > 1:
                w = rng.randrange(tree_size)
            chain = [u] + [fresh + i for i in range(size)] + [w]
            edges.extend(zip(chain, chain[1:]))
            fresh += size
        arcs = tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v in edges)
        g = OrientedGraph(n, arcs)
        if mad_less_than(g, bound):
            return g
    raise GraphError("resample limit exceeded while drawing a sparse instance")
