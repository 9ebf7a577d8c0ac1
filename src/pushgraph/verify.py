"""Named verification suites replaying each structural claim at desk scale.

Every suite produces machine-readable check records.  A check ends in one of
three outcomes: pass; fail, when it refutes a case, keeping the first
replayable counterexample it was given (graphs in the text format); or
exhausted-budget, when a search it needs a verdict from is truncated
(search.require_complete).  The suites back both the CLI `verify` command and
the acceptance test module.
"""

from __future__ import annotations

import inspect
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from . import coloring, families, hom
from .density import max_average_degree
from .graph import GraphError, OrientedGraph, emit_graph, underlying_girth
from .isomorphism import _augment, canonical_code, is_homomorphism, is_isomorphic
from .push import (
    agree_disagree,
    anti_twinned,
    cannot_identify,
    is_splitable,
    push,
    push_equivalent,
    push_orbit,
    split_graph,
)
from .search import InconclusiveSearch, SearchBudget, require_complete

SCHEMA_VERSION = 1


@dataclass
class CheckRecord:
    """One check's outcome.  refute() records a failing case; calling the
    record states the detail and whether the rest of the check holds, and
    tally() states the detail of a check made of refutable cases alone.  Any
    refutation fails the check, which keeps the first counterexample given."""

    id: str
    status: str = "pass"  # pass | fail | exhausted-budget
    detail: str = ""
    wall_time: float = 0.0
    witness: object | None = None
    counterexample: dict | None = None
    refuted: int = 0  # the cases refuted so far

    def refute(self, counterexample: dict | None = None) -> None:
        self.status = "fail"
        self.refuted += 1
        self.counterexample = self.counterexample or counterexample

    def tally(self, total: int, refuted: str, holds: str) -> None:
        """The detail `holds` if none of the check's total cases was refuted,
        else "<k> of <total> <refuted>"."""
        self.detail = f"{self.refuted} of {total} {refuted}" if self.refuted else holds

    def __call__(self, ok: bool, detail: str, witness=None, counterexample=None) -> None:
        if not ok:
            self.refute(counterexample)
        self.detail, self.witness = detail, witness

    def to_json(self) -> dict:
        data = {
            "id": self.id,
            "status": self.status,
            "detail": self.detail,
            "wallTime": round(self.wall_time, 6),
        }
        if self.witness is not None:
            data["witness"] = self.witness
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
        return data


@dataclass
class VerdictReport:
    suite: str
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    @property
    def inconclusive(self) -> bool:
        return any(c.status == "exhausted-budget" for c in self.checks)

    def to_json(self) -> dict:
        ordered = sorted(self.checks, key=lambda c: c.id)
        return {
            "schemaVersion": SCHEMA_VERSION,
            "suite": self.suite,
            "checks": [c.to_json() for c in ordered],
            "summary": {
                "pass": sum(c.status == "pass" for c in ordered),
                "fail": sum(c.status == "fail" for c in ordered),
                "exhaustedBudget": sum(c.status == "exhausted-budget" for c in ordered),
                "allPass": self.all_pass,
            },
        }

    @contextmanager
    def check(self, check_id: str):
        """Time the block and record the CheckRecord it yields.  A block that
        raises InconclusiveSearch is recorded as exhausted-budget, or as fail
        if it had already refuted a case, and the checks after it still run."""
        record = CheckRecord(check_id)
        started = time.perf_counter()
        try:
            yield record
        except InconclusiveSearch as exc:
            if record.status == "pass":
                record.status = "exhausted-budget"
            record.detail = str(exc)
        record.wall_time = time.perf_counter() - started
        self.checks.append(record)


@lru_cache(maxsize=None)
def enumerate_oriented_graphs(n: int) -> tuple[OrientedGraph, ...]:
    """One representative per isomorphism class of oriented graphs on n vertices."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n == 0:
        return (OrientedGraph(0),)
    new = n - 1
    return _augment(
        enumerate_oriented_graphs(new), n, [(None, (i, new), (new, i)) for i in range(new)]
    )


def _all_classes(max_n: int) -> list[OrientedGraph]:
    out: list[OrientedGraph] = []
    for n in range(max_n + 1):
        out.extend(enumerate_oriented_graphs(n))
    return out


# -- theorem-antitwin ---------------------------------------------------------


def suite_theorem_antitwin(max_n: int = 5) -> VerdictReport:
    """Push equivalence <=> isomorphic anti-twinned graphs <=> some push vector
    maps one graph onto the other, over all oriented graphs up to max_n."""
    suite = VerdictReport("theorem-antitwin")
    graphs = _all_classes(max_n)

    with suite.check("antitwin/partitions") as verdict:
        # pushing is a group action, so a graph whose code lies in a computed
        # orbit has that orbit, and push_orbit runs once per push class
        orbit_of: dict[bytes, tuple] = {}
        by_orbit: dict = {}
        by_anti: dict = {}
        for idx, g in enumerate(graphs):
            orbit = orbit_of.get(canonical_code(g))
            if orbit is None:
                orbit = tuple(push_orbit(g))
                orbit_of.update(dict.fromkeys(orbit, orbit))
            by_orbit.setdefault(orbit, []).append(idx)
            by_anti.setdefault(canonical_code(anti_twinned(g)), []).append(idx)
        partition_orbit = {frozenset(v) for v in by_orbit.values()}
        partition_anti = {frozenset(v) for v in by_anti.values()}
        ok = partition_orbit == partition_anti
        counterexample = None
        if not ok:
            diff = partition_orbit.symmetric_difference(partition_anti)
            sample = sorted(next(iter(diff)))[:2]
            counterexample = {"graphs": [emit_graph(graphs[i]) for i in sample]}
        verdict(
            ok,
            f"{len(graphs)} graphs (n <= {max_n}); push-orbit classes = "
            f"{len(partition_orbit)}, anti-twin-code classes = {len(partition_anti)}",
            counterexample=counterexample,
        )

    with suite.check("antitwin/certificates") as verdict:
        for members in by_orbit.values():
            rep = graphs[members[0]]
            for idx in members:
                if push_equivalent(rep, graphs[idx]) is None:
                    verdict.refute({"graphs": [emit_graph(rep), emit_graph(graphs[idx])]})
        verdict.tally(
            len(graphs),
            "same-class pairs refused",
            f"{len(graphs)} same-class pairs produced verified push/mapping certificates",
        )

    with suite.check("antitwin/cross-class") as verdict:
        pairs = list(combinations([graphs[m[0]] for m in by_orbit.values()], 2))
        for a, b in pairs:
            if push_equivalent(a, b) is not None:
                verdict.refute({"graphs": [emit_graph(a), emit_graph(b)]})
        verdict.tally(
            len(pairs),
            "cross-class representative pairs declared push-equivalent",
            f"{len(pairs)} cross-class representative pairs correctly refused",
        )
    return suite


# -- lemma-split --------------------------------------------------------------


def _reduction_agrees(verdict: CheckRecord, pairs, budget: SearchBudget | None) -> None:
    """Refute each (source, target) pair on which the anti-twin reduction and
    the brute force over presentations disagree about a push homomorphism."""
    for g, h in pairs:
        reduced = require_complete(hom.find_push_hom(g, h, budget))
        brute = require_complete(hom.brute_force_push_hom(g, h, budget))
        if (reduced.witness is None) != (brute.witness is None):
            verdict.refute({"graphs": [emit_graph(g), emit_graph(h)]})


def suite_lemma_split(
    max_n: int = 5, max_tgt: int = 3, budget: SearchBudget | None = None
) -> VerdictReport:
    """Hom into the anti-twinned target <=> brute force over all presentations."""
    suite = VerdictReport("lemma-split")
    with suite.check("split/reduction-vs-brute") as verdict:
        sources = _all_classes(max_n)
        targets = _all_classes(max_tgt)
        _reduction_agrees(verdict, product(sources, targets), budget)
        scope = f"(sources n <= {max_n}, targets n <= {max_tgt})"
        verdict.tally(
            len(sources) * len(targets),
            f"(source, target) pairs disagree {scope}",
            f"{len(sources) * len(targets)} (source, target) pairs agree {scope}",
        )
    return suite


# -- prop-transfer ------------------------------------------------------------


def suite_prop_transfer(count: int = 1000, seed: int = 0, max_n: int = 12) -> VerdictReport:
    """Random verified homomorphisms survive pushing any target set."""
    suite = VerdictReport("prop-transfer")
    with suite.check("transfer/random") as verdict:
        rng = random.Random(seed)
        for _ in range(count):
            hn = rng.randint(1, 5)
            h_arcs = []
            for u, v in combinations(range(hn), 2):
                roll = rng.random()
                if roll < 1 / 3:
                    h_arcs.append((u, v))
                elif roll < 2 / 3:
                    h_arcs.append((v, u))
            h = OrientedGraph(hn, tuple(h_arcs))
            gn = rng.randint(1, max_n)
            image = tuple(rng.randrange(hn) for _ in range(gn))
            g_arcs = [
                (u, v)
                for u in range(gn)
                for v in range(gn)
                if u != v and h.has_arc(image[u], image[v]) and rng.random() < 0.5
            ]
            g = OrientedGraph(gn, tuple(g_arcs))
            push_h = [w for w in range(hn) if rng.random() < 0.5]
            try:
                hom.transfer(g, h, image, push_h)
            except AssertionError:
                graphs = [emit_graph(g), emit_graph(h)]
                verdict.refute({"graphs": graphs, "mapping": list(image), "targetPush": push_h})
        verdict.tally(
            count,
            f"random homomorphisms failed to transfer (seed {seed})",
            f"{count} random homomorphisms transferred and re-verified (seed {seed})",
        )
    return suite


# -- outerplanar5 -------------------------------------------------------------


def _path_oracle(bits: tuple[bool, ...], a: int, b: int) -> bool:
    """Exhaustive oracle: all interior push subsets times all interior colorings."""
    m = len(bits)
    path = families.oriented_path(bits)
    triangle = families.c3()
    interiors = list(range(1, m))
    for mask in range(1 << len(interiors)):
        vector = [interiors[i] for i in range(len(interiors)) if mask >> i & 1]
        presented = push(path, vector)
        for fill in product(range(3), repeat=len(interiors)):
            mapping = (a, *fill, b) if m >= 2 else (a, b)
            if is_homomorphism(presented, triangle, mapping):
                return True
    return False


def suite_outerplanar5(
    count: int = 100,
    max_n: int = 60,
    seed: int = 0,
    budget: SearchBudget | None = None,
) -> VerdictReport:
    suite = VerdictReport("outerplanar5")

    with suite.check("outerplanar5/path-lemma-oracle") as verdict:
        checked = 0
        for m in range(1, 7):
            for bits_mask in range(1 << m):
                bits = tuple(bool(bits_mask >> i & 1) for i in range(m))
                for a in range(3):
                    for b in range(3):
                        checked += 1
                        fast = coloring.path_extend_to_c3(bits, a, b) is not None
                        slow = _path_oracle(bits, a, b)
                        if fast != slow:
                            verdict.refute(
                                {"pattern": ["+" if x else "-" for x in bits], "a": a, "b": b}
                            )
        verdict.tally(
            checked,
            "(pattern, endpoints) cases up to length 6 disagree with enumeration",
            f"{checked} (pattern, endpoints) cases up to length 6 agree with enumeration",
        )

    with suite.check("outerplanar5/path-lemma-values") as verdict:
        # (pattern, a, b, feasible): '+++-' with equal ends, then every length-4
        # pattern with distinct ends
        stated = [("+++-", 0, 0, False)] + [
            ("".join("+" if mask >> i & 1 else "-" for i in range(4)), a, b, True)
            for mask in range(16)
            for a, b in permutations(range(3), 2)
        ]
        for pattern, a, b, feasible in stated:
            if (coloring.path_extend_to_c3(pattern, a, b) is not None) != feasible:
                verdict.refute({"pattern": list(pattern), "a": a, "b": b})
        verdict.tally(
            len(stated),
            "stated (pattern, endpoints) feasibilities are wrong",
            "'+++-' with equal endpoints infeasible; every length-4 pattern with "
            "distinct endpoints feasible",
        )

    with suite.check("outerplanar5/instances") as verdict:
        rng = random.Random(seed)
        try:
            for i in range(count):
                n = rng.randint(5, max_n)
                g = families.random_outerplanar(n, 5, seed=seed * 7919 + i)
                coloring.color_outerplanar_g5(g, budget)
            detail = (
                f"{count} random outerplanar girth-5 instances (n <= {max_n}) received "
                "verified triangle colorings"
            )
        except coloring.CounterexampleFound as exc:
            verdict.refute({"graph": exc.graph_text, "detail": exc.detail})
            detail = (
                f"random outerplanar girth-5 instance {i} (n = {n}) received no triangle "
                f"coloring; {i} of {count} were colored before it"
            )
        verdict(True, detail)

    with suite.check("outerplanar5/odd-cycle-floor") as verdict:
        res = require_complete(
            hom.push_chromatic_number(families.directed_cycle(5), max_k=2, budget=budget)
        )
        verdict(
            res.value is None and res.lower_bound == 3,
            "the directed 5-cycle refuses every target on at most 2 vertices",
        )
    return suite


# -- zielonka -----------------------------------------------------------------


def suite_zielonka() -> VerdictReport:
    suite = VerdictReport("zielonka")
    for k in range(2, 6):
        with suite.check(f"zielonka/orders-k{k}") as verdict:
            full = families.zielonka(k)
            half = families.zielonka_half(k)
            verdict(
                full.n == k * 2 ** (k - 1) and half.n == k * 2 ** (k - 2),
                f"|V| = {full.n} (want {k * 2 ** (k - 1)}), half = {half.n} "
                f"(want {k * 2 ** (k - 2)})",
            )
    for k in range(2, 5):
        with suite.check(f"zielonka/split-k{k}") as verdict:
            full = families.zielonka(k)
            cert = is_splitable(full)
            ok = cert is not None
            detail = "generic split search found a certificate"
            if ok:
                try:
                    split = split_graph(full, cert)
                except GraphError as exc:
                    ok = False
                    detail += f"; split_graph refused it: {exc}"
                else:
                    iso = is_isomorphic(anti_twinned(split), full)
                    ok = iso is not None and split.n == full.n // 2
                    detail += "; anti-twinning the split graph reproduces the original (isomorphism search)"
            verdict(ok, detail, counterexample={"graph": emit_graph(full)})
        with suite.check(f"zielonka/half-rebuild-k{k}") as verdict:
            half = families.zielonka_half(k)
            iso = is_isomorphic(anti_twinned(half), full)
            verdict(
                iso is not None,
                "independent isomorphism search confirms the transversal half",
            )
    return suite


# -- gadgets-p3 ---------------------------------------------------------------


def suite_gadgets_p3(budget: SearchBudget | None = None) -> VerdictReport:
    suite = VerdictReport("gadgets-p3")

    with suite.check("gadgets/uc4-push-invariant") as verdict:
        orbit = push_orbit(families.uc4())
        verdict(
            len(orbit) == 1,
            f"push orbit of the one-reversed-arc 4-cycle has {len(orbit)} isomorphism class(es)",
        )

    with suite.check("gadgets/apex-triangle-identities") as verdict:
        target = families.paley_plus()
        everything = frozenset(range(4))
        for v in range(4):
            s = families.two_step_neighborhoods(target, v)
            if s.out_out | s.in_in != everything - {v} or s.out_in | s.in_out != everything:
                verdict.refute({"graph": emit_graph(target)})
        verdict.tally(
            4,
            "vertices break a two-step covering identity",
            "both two-step covering identities hold exactly for all 4 vertices",
        )

    gadget = families.b0()
    with suite.check("gadgets/order8-rigid") as verdict:
        # merged images are impossible, so 7 vertices cannot host it
        for x, y in combinations(range(8), 2):
            if not cannot_identify(gadget, x, y):
                verdict.refute({"graph": emit_graph(gadget)})
        verdict.tally(
            28,
            "vertex pairs are identifiable",
            "all 28 vertex pairs are non-identifiable and the identity colors the "
            "gadget with 8 colors, so its push chromatic number is exactly 8",
        )

    with suite.check("gadgets/order8-dominating-pair") as verdict:
        report = families.b0_pair_report(gadget)
        hits = [row["pair"] for row in report if row["meets_bound"]]
        verdict(
            len(hits) >= 1,
            f"pairs with the dominating vertex meeting agree/disagree >= 3: {hits}",
            witness=report,
            counterexample={"graph": emit_graph(gadget)},
        )

    with suite.check("gadgets/forced-pair-overlap") as verdict:
        y = families.y_gadget()
        case = {"graph": emit_graph(y)}
        stats_x = agree_disagree(y, 0, 1)
        stats_y = agree_disagree(y, 0, 2)
        # the common neighbourhoods of the apex 0 and of 1 and of 2
        rings = [sorted(y.neighbors(0) & y.neighbors(s)) for s in (1, 2)]
        cycles_ok = all(
            is_isomorphic(y.induced(ring)[0], families.directed_cycle(5)) is not None
            for ring in rings
        ) and all(
            cannot_identify(y, p, q)
            for group in ((0, 1, 2), *rings)
            for p, q in combinations(group, 2)
        )
        if not (cycles_ok and stats_x.max_count >= 4 and stats_y.max_count >= 4):
            verdict.refute(case)
        res = require_complete(hom.push_chromatic_number(y, max_k=5, budget=budget))
        refused = sum(len(hom.enumerate_tournaments(k)) for k in range(1, 6))
        detail = (
            f"gadget constructed with {'validated' if cycles_ok else 'invalid'} 5-cycles; "
            f"identity images give max agree/disagree {stats_x.max_count} and "
            f"{stats_y.max_count} (>= 4); all {refused} tournaments on <= 5 vertices "
            "refused (forced >= 4 common neighbors)"
        )
        if res.value is not None:
            detail = f"unexpected push-homomorphism into a {res.value}-vertex tournament"
        verdict(res.value is None, detail, counterexample=case)

    with suite.check("gadgets/reduction-vs-brute-on-gadget") as verdict:
        y = families.y_gadget()
        targets = [t for k in range(4) for t in hom.enumerate_tournaments(k)]
        _reduction_agrees(verdict, product([y], targets), budget)
        verdict.tally(
            len(targets),
            "small targets get different verdicts from the anti-twin reduction and "
            "presentation enumeration",
            "anti-twin reduction and presentation enumeration agree on all small targets",
        )

    with suite.check("gadgets/nine-tournament-search") as verdict:
        relaxed = nine_tournament_constraint_search(enforce_pairs=False)
        outcome = nine_tournament_constraint_search()
        verdict(
            outcome["survivors"] == 0 and relaxed["survivors"] > 0,
            f"{relaxed['survivors']} degree-feasible residual tournaments exist, "
            f"0 required; with the pair constraint: {outcome['explored']} partial "
            f"assignments explored, {outcome['pair_pruned']} pair-pruned, "
            f"{outcome['survivors']} survivors",
            witness={"relaxed": relaxed, "constrained": outcome},
        )
    return suite


def nine_tournament_constraint_search(enforce_pairs: bool = True) -> dict:
    """Constrained search for a 9-vertex tournament with a dominating vertex,
    residual out-degrees in {3, 4}, and min agree/disagree >= 3 on every pair.

    The structural argument says no such tournament exists; this enumerates
    the residual 8-vertex tournaments row by row (out-sets chosen against the
    sorted score vector 3,3,3,3,4,4,4,4, which loses no isomorphism class),
    pruning on degree feasibility and on each completed pair's statistics.
    With enforce_pairs=False it counts the degree-feasible tournaments
    instead, as a sanity check that the enumeration itself is not vacuous.
    """
    size = 8
    targets = [3, 3, 3, 3, 4, 4, 4, 4]
    adj = [[0] * size for _ in range(size)]  # adj[u][w] = 1 iff arc u->w
    out_deg = [0] * size
    stats = {"explored": 0, "survivors": 0, "pair_pruned": 0, "degree_pruned": 0}

    def pair_ok(u: int, w: int) -> bool:
        # statistics inside the full 9-vertex tournament: the apex dominates
        # both endpoints, so it always agrees
        agree = 1
        disagree = 0
        for z in range(size):
            if z == u or z == w:
                continue
            if adj[u][z] == adj[w][z]:
                agree += 1
            else:
                disagree += 1
        return min(agree, disagree) >= 3

    def place_row(u: int) -> None:
        stats["explored"] += 1
        if u == size:
            stats["survivors"] += 1
            return
        need = targets[u] - out_deg[u]
        later = list(range(u + 1, size))
        if need < 0 or need > len(later):
            stats["degree_pruned"] += 1
            return
        for chosen in combinations(later, need):
            chosen_set = set(chosen)
            feasible = True
            for w in later:
                if w in chosen_set:
                    adj[u][w] = 1
                    out_deg[u] += 1
                else:
                    adj[w][u] = 1
                    out_deg[w] += 1
                    if out_deg[w] > targets[w]:
                        feasible = False
            if not feasible:
                stats["degree_pruned"] += 1
            elif enforce_pairs:
                for w in range(u):
                    if not pair_ok(w, u):
                        stats["pair_pruned"] += 1
                        feasible = False
                        break
            if feasible:
                place_row(u + 1)
            for w in later:
                if w in chosen_set:
                    adj[u][w] = 0
                    out_deg[u] -= 1
                else:
                    adj[w][u] = 0
                    out_deg[w] -= 1
    place_row(0)
    return stats


# -- girth8 -------------------------------------------------------------------


def suite_girth8_lower(budget: SearchBudget | None = None) -> VerdictReport:
    suite = VerdictReport("girth8-lower")
    witness = families.girth8_witness()

    with suite.check("girth8/witness-shape") as verdict:
        girth = underlying_girth(witness)
        verdict(
            girth == 8 and witness.n == 64 and len(witness.arcs) == 81,
            f"witness has {witness.n} vertices, {len(witness.arcs)} arcs, girth {girth}",
            counterexample={"graph": emit_graph(witness)},
        )

    with suite.check("girth8/no-triangle-coloring") as verdict:
        res = require_complete(hom.find_push_hom(witness, families.c3(), budget))
        verdict(
            res.status == "none",
            f"push-homomorphism search into the directed triangle: {res.status} "
            f"after {res.nodes} nodes (proven absence required)",
        )

    with suite.check("girth8/nine-cycle-value") as verdict:
        nine = require_complete(
            hom.push_chromatic_number(families.directed_cycle(9), max_k=3, budget=budget)
        )
        verdict(
            nine.value == 3,
            f"push chromatic number of the directed 9-cycle = {nine.value}",
        )
    return suite


def suite_girth8_upper(
    count: int = 100,
    max_n: int = 500,
    seed: int = 0,
) -> VerdictReport:
    # declares no budget: nothing it calls accepts one
    suite = VerdictReport("girth8-upper")

    with suite.check("girth8/extension-tables") as verdict:
        try:
            tables = coloring.build_extension_tables()
        except coloring.CounterexampleFound as exc:
            verdict(False, exc.detail)
        else:
            _, chain, branch = tables.by_kind.values()
            verdict(
                True,
                f"chain table {len(chain)}/128 keys, branch table "
                f"{len(branch)}/2048 keys (all 64 colorings solvable under every "
                f"arc pattern), triangle path table complete; sha256 {tables.sha256[:16]}...",
            )

    with suite.check("girth8/sparse-instances") as verdict:
        # sizes spread from min(20, max_n) to max_n; the last one is max_n
        smallest = min(20, max_n)
        try:
            for i in range(count):
                n = smallest + (max_n - smallest) * i // (count - 1) if count > 1 else max_n
                g = families.random_sparse(n, seed=seed * 104729 + i)
                coloring.push_color_to_paley(g)
            detail = (
                f"{count}/{count} random sparse instances (mad < 8/3 verified, n up to "
                f"{max_n}) received end-to-end verified colorings"
            )
        except coloring.CounterexampleFound as exc:
            verdict.refute({"graph": exc.graph_text, "detail": exc.detail})
            detail = (
                f"random sparse instance {i} (n = {n}) received no verified coloring; "
                f"{i} of {count} were colored before it"
            )
        verdict(True, detail)

    with suite.check("girth8/discharge-contrapositive") as verdict:
        examined = 0
        rng = random.Random(seed + 1)
        corpus = _config_free_corpus(rng)
        for g in corpus:
            if coloring.find_reducible_config(g) is not None:
                continue
            examined += 1
            audit = coloring.discharge_audit(g)
            mad = max_average_degree(g)
            if not audit.meets_eight_thirds or mad < Fraction(8, 3):
                verdict.refute({"graph": emit_graph(g)})
        verdict.tally(
            examined,
            "configuration-free graphs have min modified degree < 8/3 or mad < 8/3",
            f"{examined} configuration-free graphs all have min modified degree >= 8/3 "
            "and mad >= 8/3",
        )
        if examined < 10:
            verdict(False, f"only {examined} configuration-free graphs examined; 10 wanted")
    return suite


def _config_free_corpus(rng: random.Random) -> list[OrientedGraph]:
    """Graphs with none of the reducible configurations: dense seeds plus
    random orientations of cubic-ish graphs and single subdivisions."""
    corpus: list[OrientedGraph] = []
    corpus.extend(hom.enumerate_tournaments(4))
    corpus.extend(hom.enumerate_tournaments(5))
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    # subdivide one edge of K4: a lone degree-2 vertex between degree-3 vertices
    edges = [(0, 4), (4, 1)] + [e for e in k4 if e != (0, 1)]
    corpus.append(OrientedGraph(5, tuple(edges)))
    for trial in range(40):
        n = rng.choice([6, 8, 10])
        perm = list(range(n))
        rng.shuffle(perm)
        ring = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
        chords = [(perm[i], perm[(i + n // 2) % n]) for i in range(n // 2)]
        edge_set = {tuple(sorted(e)) for e in ring + chords}
        arcs = tuple(
            (u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(edge_set)
        )
        corpus.append(OrientedGraph(n, arcs))
    return corpus


# -- sandwich and tournament3 --------------------------------------------------


def suite_sandwich(max_n: int = 5, budget: SearchBudget | None = None) -> VerdictReport:
    """Push chromatic <= oriented chromatic <= twice push chromatic, exhaustively."""
    suite = VerdictReport("sandwich")
    with suite.check("sandwich/exhaustive") as verdict:
        graphs = _all_classes(max_n)
        checked = 0
        for g in graphs:
            if g.n == 0:
                continue
            k = min(g.n, 7)
            pushy = require_complete(hom.push_chromatic_number(g, max_k=k, budget=budget))
            ordinary = require_complete(hom.oriented_chromatic_number(g, max_k=k, budget=budget))
            checked += 1
            if not (
                pushy.value is not None
                and ordinary.value is not None
                and pushy.value <= ordinary.value <= 2 * pushy.value
            ):
                verdict.refute(
                    {"graph": emit_graph(g), "push": pushy.value, "oriented": ordinary.value}
                )
        verdict.tally(
            checked,
            f"oriented graphs with n <= {max_n} break the sandwich bounds",
            f"{checked} oriented graphs with n <= {max_n} satisfy the sandwich bounds",
        )
    return suite


def suite_tournament3() -> VerdictReport:
    suite = VerdictReport("tournament3")
    with suite.check("tournament3/single-class") as verdict:
        reps = hom.enumerate_tournaments(3)
        orbits = {tuple(push_orbit(t)) for t in reps}
        cert = push_equivalent(reps[0], reps[1]) if len(reps) == 2 else None
        verdict(
            len(reps) == 2 and len(orbits) == 1 and cert is not None,
            f"{len(reps)} isomorphism classes collapse into {len(orbits)} push class; "
            "certificate verified",
        )
    return suite


# -- dispatch -----------------------------------------------------------------


SUITES = {
    "theorem-antitwin": suite_theorem_antitwin,
    "prop-transfer": suite_prop_transfer,
    "lemma-split": suite_lemma_split,
    "outerplanar5": suite_outerplanar5,
    "zielonka": suite_zielonka,
    "gadgets-p3": suite_gadgets_p3,
    "girth8-lower": suite_girth8_lower,
    "girth8-upper": suite_girth8_upper,
    "sandwich": suite_sandwich,
    "tournament3": suite_tournament3,
}


# smallest --max-n of the suites that build instances of at least that size;
# every other count and max_n may go down to 0
_MIN_MAX_N = {"prop-transfer": 1, "outerplanar5": 5, "girth8-upper": 1}


def run_suite(name: str, **options) -> VerdictReport:
    """Run one named suite; unknown names and out-of-range sizes raise ValueError.

    Each suite declares its options and their defaults in its signature; it
    receives only the options it declares, and an option given as None keeps
    its default (0 means 0).
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known suites: {', '.join(SUITES)}")
    suite = SUITES[name]
    declared = inspect.signature(suite).parameters
    chosen = {k: v for k, v in options.items() if v is not None and k in declared}
    for key, low in (("count", 0), ("max_n", _MIN_MAX_N.get(name, 0))):
        if chosen.get(key, low) < low:
            raise ValueError(f"--{key.replace('_', '-')} must be at least {low} for {name}")
    return suite(**chosen)
