"""Independent answer checks for the benchmark.

Nothing here imports pushgraph: graphs are read through their `n` and `arcs`
fields (or parsed from text with this module's own parser), push vectors are
applied by hand and every certificate or witness is checked arc by arc.  A
program answer is never accepted because it calls itself verified.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence

Arc = tuple[int, int]

# the targets the `color` command promises, as arc sets on 0..k-1
APEX_TRIANGLE = frozenset({(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)})
DIRECTED_TRIANGLE = frozenset({(0, 1), (1, 2), (2, 0)})


class CheckFailed(Exception):
    """A program answer is wrong or cannot be verified."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def push_arcs(arcs: Iterable[Arc], vertices: Iterable[int]) -> list[Arc]:
    """Reverse every arc with exactly one endpoint in the pushed set."""
    pushed = set(vertices)
    return [(v, u) if (u in pushed) != (v in pushed) else (u, v) for u, v in arcs]


def relabel_arcs(arcs: Iterable[Arc], perm: Sequence[int]) -> list[Arc]:
    return sorted((perm[u], perm[v]) for u, v in arcs)


def check_push_isomorphism(g, h, push_vector, mapping) -> None:
    """`mapping` is a bijection carrying g pushed at `push_vector` onto h."""
    n = g.n
    require(h.n == n, f"orders differ: {n} vs {h.n}")
    mapping = list(mapping)
    require(sorted(mapping) == list(range(n)), "mapping is not a permutation")
    vector = set(push_vector)
    require(vector <= set(range(n)), "push vector names a vertex outside the graph")
    image = {(mapping[u], mapping[v]) for u, v in push_arcs(g.arcs, vector)}
    require(image == set(h.arcs), "pushed and mapped arcs differ from the target's arcs")


def check_push_hom(g, target_arcs: frozenset, target_n: int, push_vector, mapping) -> None:
    """`mapping` sends every arc of g pushed at `push_vector` onto a target arc."""
    mapping = list(mapping)
    require(len(mapping) == g.n, "mapping length differs from the vertex count")
    require(all(0 <= w < target_n for w in mapping), "mapping leaves the target")
    require(set(push_vector) <= set(range(g.n)), "push vector names a vertex outside the graph")
    for u, v in push_arcs(g.arcs, push_vector):
        require((mapping[u], mapping[v]) in target_arcs, f"arc ({u}, {v}) is not preserved")


def is_tournament(n: int, arcs: Iterable[Arc]) -> bool:
    pairs = [frozenset(a) for a in arcs]
    return len(pairs) == len(set(pairs)) == n * (n - 1) // 2 and all(len(p) == 2 for p in pairs)


def check_chromatic(g, result, pushy: bool) -> int:
    """Check a chromatic result's witness into its tournament; return the value."""
    require(result.complete, "chromatic search reported an incomplete search")
    require(result.value is not None and result.target is not None, "no chromatic value")
    target = result.target
    require(target.n == result.value, "target order differs from the reported value")
    require(is_tournament(target.n, target.arcs), "chromatic target is not a tournament")
    if pushy:
        witness = result.witness
        check_push_hom(g, frozenset(target.arcs), target.n, witness.push_vector, witness.mapping)
    else:
        check_push_hom(g, frozenset(target.arcs), target.n, (), result.witness)
    return result.value


def check_sandwich(push_value: int, oriented_value: int) -> None:
    require(
        push_value <= oriented_value <= 2 * push_value,
        f"sandwich violated: push {push_value}, oriented {oriented_value}",
    )


def neighbor_profile(n: int, arcs: Iterable[Arc]) -> list[tuple]:
    """Sorted (degree, sorted neighbour degrees) over the underlying graph.

    Pushing leaves the underlying graph unchanged and relabelling permutes the
    entries, so two graphs with different profiles are not push-equivalent.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return sorted((len(nb), tuple(sorted(len(nbrs[w]) for w in nb))) for nb in nbrs)


def parse_graph_text(text: str) -> tuple[int, frozenset]:
    """Parse `oriented <n>` followed by `a <u> <v>` lines."""
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    lines = [fields for fields in lines if fields]
    require(bool(lines) and lines[0][0] == "oriented" and len(lines[0]) == 2, "bad graph header")
    n = int(lines[0][1])
    arcs = []
    for fields in lines[1:]:
        require(fields[0] == "a" and len(fields) == 3, f"bad arc line {fields}")
        arcs.append((int(fields[1]), int(fields[2])))
    require(len(arcs) == len(set(arcs)), "duplicate arcs in graph text")
    return n, frozenset(arcs)


def emit_graph_text(n: int, arcs: Iterable[Arc]) -> str:
    return "".join([f"oriented {n}\n"] + [f"a {u} {v}\n" for u, v in sorted(arcs)])


def check_color_output(g, exit_code: int, stdout: str, target: str) -> None:
    """Check a `color sparse|outerplanar5` run: exit code, JSON shape, witness."""
    require(exit_code == 0, f"exit code {exit_code}")
    payload = json.loads(stdout)
    require(isinstance(payload, dict), "output is not a JSON object")
    require(
        set(payload) == {"schemaVersion", "status", "witness", "reductions"},
        f"unexpected keys {sorted(payload)}",
    )
    require(payload["status"] == "found", f"status {payload['status']!r}")
    witness = payload["witness"]
    require(
        set(witness) == {"pushVector", "mapping", "target", "verified"},
        f"unexpected witness keys {sorted(witness)}",
    )
    require(witness["verified"] is True, "witness not marked verified")
    target_n, target_arcs = parse_graph_text(witness["target"])
    expected = APEX_TRIANGLE if target == "sparse" else DIRECTED_TRIANGLE
    require(target_arcs == expected, f"unexpected {target} target")
    check_push_hom(g, target_arcs, target_n, witness["pushVector"], witness["mapping"])
    reductions = payload["reductions"]
    require(isinstance(reductions, int) and reductions >= 0, "bad reduction count")


def check_max_average_degree(g, value, family_bound: Fraction) -> None:
    """Bounds on an exact mad: at least the densest of the whole graph and its
    2-core, strictly below the family's guaranteed bound, and of the form
    2e/k with k at most n."""
    require(isinstance(value, Fraction), f"mad is a {type(value).__name__}, not a Fraction")
    n, arcs = g.n, list(g.arcs)
    require(value >= Fraction(2 * len(arcs), n), "mad below the whole graph's average degree")
    core_n, core_m = _two_core_size(n, arcs)
    if core_n:
        require(value >= Fraction(2 * core_m, core_n), "mad below the 2-core's average degree")
    require(value < family_bound, f"mad {value} not below the family bound {family_bound}")
    require((value / 2).denominator <= n, "mad is not a density of a subgraph")


def _two_core_size(n: int, arcs: list[Arc]) -> tuple[int, int]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in arcs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    alive = [True] * n
    stack = [v for v in range(n) if len(nbrs[v]) < 2]
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for w in nbrs[v]:
            nbrs[w].discard(v)
            if alive[w] and len(nbrs[w]) < 2:
                stack.append(w)
        nbrs[v].clear()
    core = [v for v in range(n) if alive[v]]
    return len(core), sum(len(nbrs[v]) for v in core) // 2


def check_partitions_agree(keys_a: dict, keys_b: dict) -> None:
    """The partitions induced by two keyings of the same items coincide."""
    require(set(keys_a) == set(keys_b), "keyings cover different items")

    def blocks(keys: dict) -> set:
        groups: dict = {}
        for item, key in keys.items():
            groups.setdefault(key, []).append(item)
        return {frozenset(members) for members in groups.values()}

    require(blocks(keys_a) == blocks(keys_b), "anti-twin codes and push orbits partition differently")

