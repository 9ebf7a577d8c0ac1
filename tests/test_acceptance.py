"""Acceptance gate: one test per criterion, each printing a verdict line.

Criterion sizes and tolerances are pinned here exactly as stated; every
value asserted is either exact combinatorics or a verified certificate.
"""

import time
from itertools import combinations

from pushgraph import (
    ConfigKind,
    SearchBudget,
    build_extension_tables,
    cannot_identify,
    find_push_hom,
    is_homomorphism,
    push_chromatic_number,
    underlying_girth,
)
from pushgraph.families import b0, c3, girth8_witness
from pushgraph.hom import PushHomWitness
from pushgraph.verify import nine_tournament_constraint_search, run_suite


def _run(criterion: str, suite_name: str, **options):
    started = time.perf_counter()
    report = run_suite(suite_name, **options)
    elapsed = time.perf_counter() - started
    for check in sorted(report.checks, key=lambda c: c.id):
        print(f"{criterion} [{check.status:>16}] {check.id}: {check.detail}")
    print(f"{criterion} {'PASS' if report.all_pass else 'FAIL'} ({elapsed:.1f}s)")
    assert report.all_pass, f"{criterion} failed: {report.to_json()}"
    return report


def test_criterion_01_push_equivalence_three_ways():
    # all oriented graphs on <= 5 vertices: push_equivalent <=> isomorphic
    # anti-twinned graphs <=> membership in the 2^n push orbit
    _run("criterion-01", "theorem-antitwin", max_n=5)


def test_criterion_02_reduction_equals_brute_force():
    # sources <= 5 vertices, targets <= 3 vertices, zero discrepancies
    _run("criterion-02", "lemma-split", max_n=5, max_tgt=3)


def test_criterion_03_transfer_of_thousand_homomorphisms():
    _run("criterion-03", "prop-transfer", count=1000, seed=0)


def test_criterion_04_outerplanar_girth5_three_colors():
    # 100 instances with n <= 60 colored into the directed triangle, and an
    # odd cycle refusing every 2-vertex target
    _run("criterion-04", "outerplanar5", count=100, max_n=60, seed=0)


def test_criterion_05_path_lemma_exhaustive():
    # covered by the same suite: patterns of length <= 6 against the
    # enumeration oracle plus the two stated feasibility families
    report = _run("criterion-05", "outerplanar5", count=1, max_n=10, seed=1)
    ids = {c.id for c in report.checks}
    assert "outerplanar5/path-lemma-oracle" in ids
    assert "outerplanar5/path-lemma-values" in ids


def test_criterion_06_zielonka_orders_and_splits():
    _run("criterion-06", "zielonka")


def test_criterion_07_gadget_claims():
    report = _run("criterion-07", "gadgets-p3")
    # the 8-vertex gadget: no 7-vertex target is possible because all 28
    # pairs are non-identifiable; itself is the order-8 witness
    gadget = b0()
    assert all(cannot_identify(gadget, x, y) for x, y in combinations(range(8), 2))
    identity = PushHomWitness(frozenset(), tuple(range(8)))
    assert is_homomorphism(gadget, gadget, identity.mapping)
    assert {c.id for c in report.checks} >= {
        "gadgets/uc4-push-invariant",
        "gadgets/apex-triangle-identities",
        "gadgets/order8-rigid",
    }


def test_criterion_08_girth8_lower_bound():
    # girth exactly 8 and proven absence against the triangle within the
    # default search budget
    witness = girth8_witness()
    assert underlying_girth(witness) == 8
    result = find_push_hom(witness, c3(), SearchBudget())
    print(
        f"criterion-08 refutation: status={result.status} nodes={result.nodes} "
        f"({result.seconds:.2f}s)"
    )
    assert result.status == "none" and result.complete
    _run("criterion-08", "girth8-lower")


def test_criterion_09_girth8_upper_bound_machinery():
    # extension tables complete (all 64 colorings solvable for the branch
    # configuration), 100 verified sparse colorings up to 500 vertices, and
    # the discharge contrapositive
    tables = build_extension_tables()
    branch = tables.by_kind[ConfigKind.DEGREE_THREE_TWO_DEGREE_TWO]
    assert len(branch) == 2048  # 64 colorings x 32 arc patterns
    _run("criterion-09", "girth8-upper", count=100, max_n=500, seed=0)


def test_criterion_10_sandwich_and_single_push_class():
    # push chromatic <= oriented chromatic <= twice push chromatic on every
    # oriented graph with <= 5 vertices, and one push class of 3-tournaments
    _run("criterion-10a", "sandwich", max_n=5)
    _run("criterion-10b", "tournament3")


def test_criterion_11_nine_vertex_tournament_search():
    # optional criterion: the row-wise pruned search finishes in well under a
    # second, so it runs by default here
    started = time.perf_counter()
    relaxed = nine_tournament_constraint_search(enforce_pairs=False)
    constrained = nine_tournament_constraint_search()
    elapsed = time.perf_counter() - started
    print(
        f"criterion-11 optional search: {relaxed['survivors']} degree-feasible "
        f"residual tournaments, {constrained['survivors']} satisfy every pair "
        f"constraint ({elapsed:.2f}s)"
    )
    assert relaxed["survivors"] > 0
    assert constrained["survivors"] == 0
    print("criterion-11 PASS")
