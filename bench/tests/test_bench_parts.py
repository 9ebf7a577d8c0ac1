"""Tests of the benchmark's own parts: span arithmetic, the deadline path and
the independent checker.  Run with `python3 -m pytest bench/tests`."""

import json
import random
import signal
from fractions import Fraction
from types import SimpleNamespace

import pytest

import checker
import run
import tracing
import workloads
from checker import CheckFailed


def span(name, start, end, parent, op="0:0"):
    return [name, start, end, parent, op]


def test_self_time_subtracts_nested_children():
    spans = [
        span("push.push_equivalent", 0.0, 10.0, -1),
        span("isomorphism.is_isomorphic", 1.0, 4.0, 0),
        span("isomorphism.refine_colors", 2.0, 3.0, 1),
        span("push.repair_isomorphism", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("graph.parse_graph", 1.0, 5.0, 0),
        span("graph.emit_graph", 3.0, 7.0, 0),
        span("graph.emit_graph", 9.0, 12.0, 0),  # clipped at the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_totals_filter_by_operation():
    spans = [
        span("push.push", 0.0, 2.0, -1, "setup"),
        span("push.push", 2.0, 3.0, -1, "1:0"),
        span("graph.OrientedGraph", 2.5, 2.75, 1, "1:0"),
    ]
    totals = tracing.layer_totals(spans, lambda op: op.startswith("1:"))
    assert totals["push.push"] == pytest.approx((1, 0.75))
    assert totals["graph.OrientedGraph"] == pytest.approx((1, 0.25))
    assert totals["cli.main"] == (0, 0.0)


def test_tracer_covers_cross_module_imports_and_restores():
    pg = run.import_program()
    original = pg.push.push_equivalent
    g = pg.graph.OrientedGraph(3, ((0, 1), (1, 2)))
    h = pg.graph.OrientedGraph(3, ((1, 0), (2, 1)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pg.cli.push_equivalent is pg.push.push_equivalent is not original
        assert pg.push.push_equivalent(g, h) is not None
    finally:
        tracer.uninstall()
    assert pg.push.push_equivalent is original and pg.cli.push_equivalent is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "push.push_equivalent"
    assert "isomorphism.is_isomorphic" in names and "graph.OrientedGraph" in names
    iso = names.index("isomorphism.is_isomorphic")
    assert tracer.spans[iso][3] == 0  # a child of push_equivalent
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_hom_nodes_counts_only_outermost_searches():
    pg = run.import_program()
    g = pg.families.directed_cycle(6)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = pg.hom.push_chromatic_number(g, max_k=4)
    finally:
        tracer.uninstall()
    assert tracer.counts["hom.nodes"] == result.nodes


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def busy_forever():
    while True:
        pass


def recurse(depth=0):
    return recurse(depth + 1)


def accept(out):
    return None


def test_deadline_stops_a_runaway_call(alarm):
    op = workloads.Op("spin", busy_forever, accept)
    elapsed, reason, out, _ = run.run_op(op, 0.05)
    assert reason == "deadline" and out is None
    assert 0.05 <= elapsed < 1.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_failures_are_sorted_by_reason(alarm):
    def bad_check(out):
        raise CheckFailed("tampered")

    cases = [
        (workloads.Op("deep", recurse, accept), "RecursionError"),
        (workloads.Op("raises", lambda: 1 / 0, accept), "exception"),
        (workloads.Op("wrong", lambda: 1, bad_check), "wrong-answer"),
        (workloads.Op("fine", lambda: 1, accept), None),
    ]
    for op, expected in cases:
        assert run.run_op(op, 5.0)[1] == expected


def test_failed_operations_count_at_the_deadline():
    fake = run.Run(SimpleNamespace(name="fake", deadline_s=2.0), 0, 1, traced=False)
    fake.setup_times = [1.0]
    records = [[0.01, None]] * 9 + [[0.5, "RecursionError"]]
    fake.passes = [{"traced": False, "records": records, "counts": {}}]
    metrics = fake.end_to_end()
    assert metrics["failed_ratio"] == pytest.approx(0.1)
    assert metrics["ops_per_s"] == pytest.approx(9 / (0.09 + 0.5))
    assert metrics["op_p90_ms"] == pytest.approx(0.9 * 10 + 0.1 * 2000)  # inclusive, between the top two


# -- the checker ------------------------------------------------------------


def graph(n, arcs):
    return SimpleNamespace(n=n, arcs=tuple(sorted(arcs)))


PATH = graph(3, [(0, 1), (1, 2)])
# PATH pushed at {1} is 1->0, 2->1; relabelled by 0->2, 1->0, 2->1
PUSHED = graph(3, [(0, 2), (1, 0)])


def test_checker_accepts_a_true_certificate():
    checker.check_push_isomorphism(PATH, PUSHED, {1}, (2, 0, 1))


@pytest.mark.parametrize(
    "vector, mapping",
    [({1}, (0, 2, 1)), (set(), (2, 0, 1)), ({1}, (2, 0, 0)), ({7}, (2, 0, 1))],
)
def test_checker_rejects_tampered_certificates(vector, mapping):
    with pytest.raises(CheckFailed):
        checker.check_push_isomorphism(PATH, PUSHED, vector, mapping)


def test_checker_rejects_a_wrong_equivalence_verdict():
    cert = SimpleNamespace(push_vector=frozenset({1}), mapping=(2, 0, 1))
    with pytest.raises(CheckFailed):
        workloads.EquivMid._refused(cert)
    with pytest.raises(CheckFailed):
        workloads.EquivMid._positive(PATH, PUSHED)(None)


def test_partner_verdict_must_match_push_orbits():
    ops = [workloads.Op("a", None, None, key=(0, 1)), workloads.Op("b", None, None, key=(1, 0))]
    said_equivalent = object()
    agreeing = [(b"a", (b"x",), None, said_equivalent), (b"a", (b"x",), None, said_equivalent)]
    assert workloads.ClassifySmall().check_pass(ops, agreeing) == {}
    disagreeing = [(b"a", (b"x",), None, None), (b"a", (b"x",), None, said_equivalent)]
    assert list(workloads.ClassifySmall().check_pass(ops, disagreeing)) == [0]
    split = [(b"a", (b"x",), None, None), (b"b", (b"x",), None, None)]
    with pytest.raises(CheckFailed):
        workloads.ClassifySmall().check_pass(ops, split)


def test_negative_queries_differ_in_underlying_profile():
    pg = run.import_program()
    g = pg.families.random_sparse(60, 3)
    h = workloads.EquivMid._negative(pg, g, random.Random(1))
    assert (h.n, len(h.arcs)) == (g.n, len(g.arcs))
    assert checker.neighbor_profile(h.n, h.arcs) != checker.neighbor_profile(g.n, g.arcs)


def color_output(mapping, target="a 0 1\na 1 2\na 2 0\n", **extra):
    payload = {
        "schemaVersion": 1,
        "status": "found",
        "witness": {"pushVector": [], "mapping": mapping, "target": "oriented 3\n" + target, "verified": True},
        "reductions": 0,
        **extra,
    }
    return json.dumps(payload)


def test_checker_verifies_cli_colourings():
    # PATH 0->1->2 maps onto the directed triangle by the identity
    checker.check_color_output(PATH, 0, color_output([0, 1, 2]), "outerplanar5")
    with pytest.raises(CheckFailed):
        checker.check_color_output(PATH, 0, color_output([0, 2, 1]), "outerplanar5")
    with pytest.raises(CheckFailed):
        checker.check_color_output(PATH, 3, color_output([0, 1, 2]), "outerplanar5")
    with pytest.raises(CheckFailed):
        checker.check_color_output(PATH, 0, color_output([0, 1, 2], target="a 0 1\na 1 2\n"), "outerplanar5")
    with pytest.raises(CheckFailed):
        checker.check_color_output(PATH, 0, color_output([0, 1, 2], extra=1), "outerplanar5")


def test_checker_bounds_max_average_degree():
    cycle = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    checker.check_max_average_degree(cycle, Fraction(2), Fraction(8, 3))
    for wrong in (Fraction(3, 2), Fraction(3), 2.0):
        with pytest.raises(CheckFailed):
            checker.check_max_average_degree(cycle, wrong, Fraction(8, 3))
