"""The push operation, anti-twinned graphs, push equivalence, splitability,
and push-invariant pair statistics.

Pushing a vertex set reverses exactly the arcs with one endpoint inside the
set.  The anti-twinned graph doubles the vertex set, giving vertex i an
anti-twin i + n whose incident arcs are all reversed; two oriented graphs are
push-equivalent exactly when their anti-twinned graphs are isomorphic;
push_equivalent decides it on the base graphs, with an image and a push bit
per vertex.  This module alone maps anti-twin structure back to the base
graph: repair_isomorphism and fold_to_push_witness (which push-homomorphism
search uses) read a push vector and a mapping off a map into an anti-twinned
graph, and split_graph rebuilds a graph from an anti-twin split.
_pushed_arcs states the reversal once, for push and for _maps_pushed_arcs,
which checks a push witness on the source's own arcs, with no pushed graph
built, for the fold, push_equivalent and the colourers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import Arc, FormatError, GraphError, OrientedGraph, _bits, _read_counted, emit_graph
from .isomorphism import IsoCertificate, _code, _find_isomorphism, _maps_arcs, is_isomorphism


@dataclass(frozen=True)
class AgreeDisagreeStats:
    """Common-neighbor statistics of a vertex pair.

    agree holds the common neighbors seen with the same arc sense from both
    vertices, disagree those seen with opposite senses.  max_count and
    min_count are push-invariant; the two sets swap when exactly one of the
    pair is pushed.
    """

    agree: frozenset[int]
    disagree: frozenset[int]

    @property
    def max_count(self) -> int:
        return max(len(self.agree), len(self.disagree))

    @property
    def min_count(self) -> int:
        return min(len(self.agree), len(self.disagree))


@dataclass(frozen=True)
class SplitCertificate:
    """Partition (part_one, part_two) with part_two[i] swapping the in/out
    neighborhoods of part_one[i]."""

    part_one: tuple[int, ...]
    part_two: tuple[int, ...]


@dataclass(frozen=True)
class PushHomWitness:
    """Push vector on the source plus a verified mapping of the pushed source.

    A push-equivalence certificate is the same pair with a bijective mapping.
    """

    push_vector: frozenset[int]
    mapping: tuple[int, ...]

    def to_json(self, target: OrientedGraph) -> dict:
        """The witness block of the CLI reports, mapping into target."""
        return {
            "pushVector": sorted(self.push_vector),
            "mapping": list(self.mapping),
            "target": emit_graph(target),
            "verified": True,
        }


def _pushed_arcs(g: OrientedGraph, vertices: Iterable[int]) -> Iterator[Arc]:
    """The arcs of g, in order, each reversed where exactly one end is in
    vertices; a vertex outside g raises GraphError before any arc is read."""
    pushed = [False] * g.n
    for v in vertices:
        g._check_vertex(v)
        pushed[v] = True
    return ((v, u) if pushed[u] != pushed[v] else (u, v) for u, v in g.arcs)


def push(g: OrientedGraph, vertices: Iterable[int]) -> OrientedGraph:
    """Reverse every arc with exactly one endpoint in the pushed set."""
    return OrientedGraph(g.n, tuple(_pushed_arcs(g, vertices)))


def _maps_pushed_arcs(
    g: OrientedGraph, h: OrientedGraph, vector: Iterable[int], mapping: tuple[int, ...]
) -> bool:
    """True iff mapping is a homomorphism of push(g, vector) into h, read off
    g's pushed arcs with no graph built."""
    return _maps_arcs(g.n, _pushed_arcs(g, vector), h, mapping)


def _presentations(g: OrientedGraph) -> Iterator[tuple[frozenset[int], tuple[Arc, ...]]]:
    """(vector, the arcs of push(g, vector)) for every push vector avoiding
    g's last vertex, in binary-count order from the empty one: a set and its
    complement push g alike, so these are all of g's presentations.  Pushing
    keeps a graph oriented, so the arcs, each in the place of the arc of g
    it reverses or keeps, need no validation."""
    for bits in range(1 << max(g.n - 1, 0)):
        vector = frozenset(v for v in range(g.n) if bits >> v & 1)
        yield vector, tuple((v, u) if (bits >> u ^ bits >> v) & 1 else (u, v) for u, v in g.arcs)


def anti_twinned(g: OrientedGraph) -> OrientedGraph:
    """The 2n-vertex graph with arcs {(i,j), (i',j'), (j,i'), (j',i)} per arc (i,j)."""
    n = g.n
    arcs: list[tuple[int, int]] = []
    for i, j in g.arcs:
        arcs.extend([(i, j), (i + n, j + n), (j, i + n), (j + n, i)])
    return OrientedGraph(2 * n, tuple(arcs))


def fold_to_push_witness(
    g: OrientedGraph, h: OrientedGraph, mapping: tuple[int, ...]
) -> PushHomWitness:
    """Turn a homomorphism g -> anti_twinned(h) into a verified push witness.

    Push the preimages of the primed half, then fold every primed image onto
    its base vertex.  The folded witness is checked arc by arc on g, pushed
    where the image is primed, with no graph built; it passes exactly when
    mapping is a homomorphism into anti_twinned(h), so no caller checks both.
    """
    vector = frozenset(v for v in range(g.n) if mapping[v] >= h.n)
    folded = tuple(w - h.n if w >= h.n else w for w in mapping)
    if not _maps_pushed_arcs(g, h, vector, folded):
        raise AssertionError("push witness failed re-verification")
    return PushHomWitness(vector, folded)


def repair_isomorphism(
    g: OrientedGraph, h: OrientedGraph, cert: IsoCertificate
) -> IsoCertificate:
    """Turn an isomorphism of anti-twinned graphs into an anti-twin-respecting one.

    For each base vertex v in turn, if f(v') != f(v)', swap the images of v'
    and of the preimage of f(v)'.  One pass suffices: a later swap at u moves
    the images of u' and of the preimage of f(u)' only, and neither is v or
    v' (that would need f(u) = f(v) or u = v'), so a repaired pair stays
    repaired.  The output is re-verified.
    """
    rg, rh = anti_twinned(g), anti_twinned(h)
    if not is_isomorphism(rg, rh, cert.mapping):
        raise GraphError("repair_isomorphism requires an isomorphism of the anti-twinned graphs")
    n = g.n
    f = list(cert.mapping)
    inverse = [-1] * (2 * n)
    for v, w in enumerate(f):
        inverse[w] = v
    for v in range(n):
        # f(v)': the anti-twins i and i + n swap
        expected = f[v] + n if f[v] < n else f[v] - n
        if f[v + n] != expected:
            other = inverse[expected]
            f[v + n], f[other] = expected, f[v + n]
            inverse[f[v + n]] = v + n
            inverse[f[other]] = other
    repaired = IsoCertificate(tuple(f))
    if not is_isomorphism(rg, rh, repaired.mapping):
        raise AssertionError("repair produced a non-isomorphism")
    return repaired


def push_equivalent(g: OrientedGraph, h: OrientedGraph) -> PushHomWitness | None:
    """Certificate that h is reachable from g by pushing a vertex set, if it is.

    Searches g's vertices for an image in h and a push bit each, on the loop
    of is_isomorphic (which fixes every bit at 0), and re-verifies that the
    mapping is an isomorphism from g, pushed where the bit is 1, onto h.  Exact:

    - g and h are push-equivalent iff anti_twinned(g) and anti_twinned(h)
      are isomorphic, and repair_isomorphism makes any such isomorphism f
      anti-twin-respecting (f(v') = f(v)').  A respecting f is exactly a
      pair (push vector, mapping): the v with f(v) primed, and f folded.
    - Pushing keeps the underlying graph, so its coarsest equitable
      partition is invariant under push-isomorphism.  One splitter queue
      splits the underlying graph of g + h into it, and the pair is refused
      at the first cell with more vertices of one graph than of the other (a
      push-isomorphism maps each final cell onto itself, and every cell is a
      union of final ones); otherwise an image shares its vertex's cell.
    - Under the pick order, a vertex with no mapped neighbour starts a new
      component, and pushing a whole component changes nothing, so its bit
      can be 0; any other bit is fixed by its first mapped neighbour's arc.
    - An image is tried only after its previous push-twin (the same
      underlying neighbourhood, senses all equal or all reversed) is used:
      swapping two unused push-twins, pushing both if reversed, is a
      push-automorphism of h fixing the used vertices that flips the bits
      of unmapped vertices only, so their subtrees succeed or fail alike.
    """
    found = _find_isomorphism(g, h, push=True)
    if found is None:
        return None
    witness = PushHomWitness(frozenset(v for v, bit in enumerate(found[1]) if bit), found[0])
    # a bijective homomorphism between graphs of equal size is an isomorphism
    bijective = len(g.arcs) == len(h.arcs) and sorted(witness.mapping) == list(range(h.n))
    if not (bijective and _maps_pushed_arcs(g, h, witness.push_vector, witness.mapping)):
        raise AssertionError("push-equivalence witness failed re-verification")
    return witness


def is_splitable(g: OrientedGraph) -> SplitCertificate | None:
    """Partition V into halves with a bijection swapping in/out neighborhoods.

    A partner of u must satisfy N+(w) = N-(u) and N-(w) = N+(u) exactly, so
    partners group by neighborhood profile: the class of profile (O, I) pairs
    off against the class of (I, O), and the isolated vertices pair among
    themselves.  A perfect pairing exists iff those class sizes match.
    """
    n = g.n
    if n % 2:
        return None
    if n == 0:
        return SplitCertificate((), ())
    classes: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        classes.setdefault((g.out_masks[v], g.in_masks[v]), []).append(v)
    part_one: list[int] = []
    part_two: list[int] = []
    for profile, members in sorted(classes.items()):
        swapped = (profile[1], profile[0])
        if profile == swapped:
            # isolated vertices pair among themselves
            if len(members) % 2:
                return None
            half = len(members) // 2
            part_one.extend(members[:half])
            part_two.extend(members[half:])
        elif profile < swapped:
            partners = classes.get(swapped)
            if partners is None or len(partners) != len(members):
                return None
            part_one.extend(members)
            part_two.extend(partners)
        elif swapped not in classes:
            return None
    cert = SplitCertificate(tuple(part_one), tuple(part_two))
    _validate_split(g, cert)
    return cert


def _validate_split(g: OrientedGraph, cert: SplitCertificate) -> None:
    n = g.n
    one, two = cert.part_one, cert.part_two
    if len(one) != len(two) or len(one) + len(two) != n:
        raise GraphError("split certificate does not describe equal halves")
    if sorted(one + two) != list(range(n)):
        raise GraphError("split certificate is not a partition of the vertex set")
    for u, w in zip(one, two):
        if g.out_masks[u] != g.in_masks[w] or g.in_masks[u] != g.out_masks[w]:
            raise GraphError(f"pair ({u}, {w}) does not swap neighborhoods")


def split_graph(g: OrientedGraph, cert: SplitCertificate) -> OrientedGraph:
    """Induced subgraph on the first half; anti-twinning it reproduces g.

    The half is renumbered in sorted order; u in part_one becomes its place
    there, and u's partner that place's anti-twin.  Once _validate_split has
    checked that the pairs partition g and that each pair (u, w) swaps its
    neighbourhoods, N+(u) = N-(w) and N-(u) = N+(w), that map sends g's arcs
    onto exactly those of anti_twinned(half), so no rebuild is compared: for
    pairs (u1, w1) and (u2, w2), w1 -> w2 iff w2 -> u1 iff u1 -> u2, and
    u2 -> w1 iff w1 -> w2; and no arc joins a pair, as u -> w would need
    w -> w.
    """
    _validate_split(g, cert)
    return g.induced(cert.part_one)[0]


def agree_disagree(g: OrientedGraph, x: int, y: int) -> AgreeDisagreeStats:
    """Agree/disagree sets of a vertex pair over their common neighbors."""
    if x == y:
        raise GraphError("agree_disagree requires two distinct vertices")
    g._check_vertex(x)
    g._check_vertex(y)
    ox, ix = g.out_masks[x], g.in_masks[x]
    oy, iy = g.out_masks[y], g.in_masks[y]
    agree = (ox & oy) | (ix & iy)
    disagree = (ox & iy) | (ix & oy)
    return AgreeDisagreeStats(
        frozenset(_bits(agree)), frozenset(_bits(disagree))
    )


def cannot_identify(g: OrientedGraph, x: int, y: int) -> bool:
    """Sound test that no push homomorphism can merge x and y.

    Adjacent pairs can never merge (targets are loop-free); non-adjacent
    pairs cannot merge when they agree and disagree simultaneously, because
    they then span a push-invariant 4-cycle whose vertices stay distinct.
    """
    if x == y:
        raise GraphError("cannot_identify requires two distinct vertices")
    if g.has_arc(x, y) or g.has_arc(y, x):
        return True
    return agree_disagree(g, x, y).min_count >= 1


def push_orbit(g: OrientedGraph) -> list[bytes]:
    """Sorted canonical codes of every push of g, deduplicated.

    Every push has g's order, so g must be within canonical_code's size
    limit.  Each push is coded from its arcs, with no graph built.
    """
    return sorted({_code(g.n, arcs) for _, arcs in _presentations(g)})


def parse_push_vector(text: str) -> frozenset[int]:
    """Parse the push-vector format: `push <k>` then k lines `v <id>`, one per vertex."""
    count, lines = _read_counted(text, "push <k>")
    vertices: set[int] = set()
    for line_no, line, fields in lines:
        if fields[0] != "v" or len(fields) != 2:
            raise FormatError(f"expected vertex line 'v <id>', got {line!r}", line_no)
        try:
            v = int(fields[1])
        except ValueError:
            raise FormatError(f"non-integer vertex in {line!r}", line_no) from None
        if v in vertices:
            raise FormatError(f"duplicate vertex {v}", line_no)
        vertices.add(v)
    if count != len(vertices):
        raise FormatError(f"header announced {count} vertices, found {len(vertices)}")
    return frozenset(vertices)
