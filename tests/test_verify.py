import hashlib
import importlib
import json

import pytest

from pushgraph.graph import GraphError, emit_graph
from pushgraph.search import SearchBudget
from pushgraph.verify import (
    SUITES,
    enumerate_oriented_graphs,
    nine_tournament_constraint_search,
    run_suite,
)

cli = importlib.import_module("pushgraph.cli")
coloring = importlib.import_module("pushgraph.coloring")
families = importlib.import_module("pushgraph.families")
hom = importlib.import_module("pushgraph.hom")
# the package re-exports the function push, which shadows the submodule name
push = importlib.import_module("pushgraph.push")
verify = importlib.import_module("pushgraph.verify")


def test_enumeration_matches_known_counts():
    assert [len(enumerate_oriented_graphs(n)) for n in range(6)] == [1, 1, 2, 7, 42, 582]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite")


def test_all_suite_names_dispatch():
    assert set(SUITES) == {
        "theorem-antitwin",
        "prop-transfer",
        "lemma-split",
        "outerplanar5",
        "zielonka",
        "gadgets-p3",
        "girth8-lower",
        "girth8-upper",
        "sandwich",
        "tournament3",
    }


def test_report_shape_and_determinism():
    first = run_suite("tournament3")
    second = run_suite("tournament3")
    payload = first.to_json()
    assert payload["schemaVersion"] == 1
    assert payload["suite"] == "tournament3"
    assert payload["summary"]["allPass"] is True
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids)
    strip = lambda p: [
        {k: v for k, v in c.items() if k != "wallTime"} for c in p["checks"]
    ]
    assert strip(payload) == strip(second.to_json())


def test_small_antitwin_suite_passes():
    report = run_suite("theorem-antitwin", max_n=4)
    assert report.all_pass


def test_small_lemma_suite_passes():
    report = run_suite("lemma-split", max_n=4, max_tgt=2)
    assert report.all_pass


def test_small_transfer_suite_passes():
    report = run_suite("prop-transfer", count=150, seed=5)
    assert report.all_pass
    (empty,) = run_suite("prop-transfer", count=0).checks
    assert empty.detail.startswith("0 random homomorphisms")


def test_small_outerplanar_suite_passes():
    report = run_suite("outerplanar5", count=12, max_n=40, seed=2)
    assert report.all_pass


def test_small_girth8_upper_suite_passes():
    report = run_suite("girth8-upper", count=12, max_n=120, seed=3)
    assert report.all_pass
    empty = run_suite("girth8-upper", count=0, max_n=60)
    details = {c.id: c.detail for c in empty.checks}
    assert details["girth8/sparse-instances"].startswith("0/0 random sparse instances")


@pytest.mark.parametrize("count, max_n", [(1, 200), (5, 5), (4, 60)])
def test_girth8_upper_sizes_end_at_max_n(monkeypatch, count, max_n):
    drawn = []
    random_sparse = families.random_sparse

    def recording(n, seed=0):
        drawn.append(n)
        return random_sparse(n, seed)

    monkeypatch.setattr(families, "random_sparse", recording)
    assert run_suite("girth8-upper", count=count, max_n=max_n).all_pass
    assert len(drawn) == count
    assert max(drawn) == max_n
    assert all(n <= max_n for n in drawn)


def test_small_sandwich_suite_passes():
    report = run_suite("sandwich", max_n=4)
    assert report.all_pass


def test_girth8_lower_suite_passes():
    report = run_suite("girth8-lower")
    assert report.all_pass


def test_zielonka_suite_passes():
    report = run_suite("zielonka")
    assert report.all_pass


# suite, small options, the (module, name) of a callee made to raise
# GraphError, and the checks that call it
REFUSALS = {
    "theorem-antitwin": (
        {"max_n": 3}, (verify, "push_equivalent"), {"antitwin/certificates", "antitwin/cross-class"},
    ),
    "prop-transfer": ({"count": 20}, (hom, "transfer"), {"transfer/random"}),
    "lemma-split": ({"max_n": 3}, (hom, "find_push_hom"), {"split/reduction-vs-brute"}),
    "outerplanar5": (
        {"count": 2, "max_n": 12},
        (coloring, "path_extend_to_c3"),
        {"outerplanar5/path-lemma-oracle", "outerplanar5/path-lemma-values"},
    ),
    "zielonka": ({}, (verify, "split_graph"), {f"zielonka/split-k{k}" for k in range(2, 5)}),
    "gadgets-p3": ({}, (hom, "push_chromatic_number"), {"gadgets/forced-pair-overlap"}),
    "girth8-lower": ({}, (hom, "find_push_hom"), {"girth8/no-triangle-coloring"}),
    "girth8-upper": (
        {"count": 3, "max_n": 40},
        (verify, "max_average_degree"),
        {"girth8/discharge-contrapositive"},
    ),
    "sandwich": ({"max_n": 3}, (hom, "oriented_chromatic_number"), {"sandwich/exhaustive"}),
    "tournament3": ({}, (verify, "push_equivalent"), {"tournament3/single-class"}),
}


def _records(report) -> dict:
    records = {}
    for check in report.to_json()["checks"]:
        check.pop("wallTime")
        records[check["id"]] = check
    return records


@pytest.mark.parametrize("suite", REFUSALS)
def test_a_graph_error_fails_the_checks_that_raise_it(monkeypatch, capsys, suite):
    options, (module, name), broken = REFUSALS[suite]
    assert set(REFUSALS) == set(SUITES)
    clean = _records(run_suite(suite, **options))

    def refuse(*args, **kwargs):
        raise GraphError("pair (0, 1) does not swap neighborhoods")

    monkeypatch.setattr(module, name, refuse)
    records = _records(run_suite(suite, **options))
    assert records.keys() == clean.keys()
    assert {i for i in records if records[i] != clean[i]} == broken
    for check_id in broken:
        assert records[check_id]["status"] == "fail"
        assert records[check_id]["detail"] == "pair (0, 1) does not swap neighborhoods"
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
    assert cli.main(["verify", suite, *flags]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("graph_text", [None, "oriented 1\n"])
def test_a_counterexample_found_fails_its_check_with_its_detail(monkeypatch, graph_text):
    def contradict():
        raise coloring.CounterexampleFound("no extension for chain: key (0, 0)", graph_text)

    monkeypatch.setattr(coloring, "build_extension_tables", contradict)
    check = _records(run_suite("girth8-upper", count=0, max_n=20))["girth8/extension-tables"]
    assert check["status"] == "fail"
    assert check["detail"] == "no extension for chain: key (0, 0)"
    if graph_text is None:
        assert "counterexample" not in check
    else:
        assert check["counterexample"] == {"graph": graph_text, "detail": check["detail"]}


def test_an_outerplanar_refusal_refutes_its_instance(monkeypatch):
    # the instances are outerplanar with girth 5 by construction, so the
    # colourer's refusal of one refutes the theorem on that instance
    refused = []

    def refuse(g, budget=None):
        refused.append(g)
        raise GraphError("not outerplanar with girth at least 5")

    monkeypatch.setattr(coloring, "color_outerplanar_g5", refuse)
    check = _records(run_suite("outerplanar5", count=3, max_n=12))["outerplanar5/instances"]
    (first,) = refused
    assert check["status"] == "fail"
    assert check["detail"] == (
        f"random outerplanar girth-5 instance 0 (n = {first.n}) received no triangle "
        "coloring; 0 of 3 were colored before it"
    )
    assert check["counterexample"] == {
        "graph": emit_graph(first), "detail": "not outerplanar with girth at least 5",
    }


def test_antitwin_checks_fail_when_partitions_stops_early(monkeypatch, capsys):
    # certificates and cross-class read the push classes partitions builds,
    # so when it stops early they have nothing to check, and must not pass
    orbit, calls = verify.push_orbit, []

    def stops_after_three(g):
        calls.append(g)
        if len(calls) > 3:
            raise GraphError("injected fault")
        return orbit(g)

    monkeypatch.setattr(verify, "push_orbit", stops_after_three)
    records = _records(run_suite("theorem-antitwin", max_n=3))
    assert records["antitwin/partitions"]["status"] == "fail"
    assert records["antitwin/partitions"]["detail"] == "injected fault"
    for check_id in ("antitwin/certificates", "antitwin/cross-class"):
        assert records[check_id]["status"] == "fail"
        assert "antitwin/partitions did not finish" in records[check_id]["detail"]
    assert cli.main(["verify", "theorem-antitwin", "--max-n=3"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_nine_tournament_search_empty_but_not_vacuous():
    constrained = nine_tournament_constraint_search()
    relaxed = nine_tournament_constraint_search(enforce_pairs=False)
    assert constrained["survivors"] == 0
    assert relaxed["survivors"] > 0


def _counterexample_found(*args, **kwargs):
    raise coloring.CounterexampleFound("injected fault", "oriented 1\n")


def _assertion_error(*args, **kwargs):
    raise AssertionError("injected fault")


def _finds_nothing(g, h, budget=None):
    return hom.PushHomResult(None, True, 0, 0.0)


def _finds_everything(g, h, budget=None):
    return hom.PushHomResult("injected witness", True, 0, 0.0)


def _no_value(g, max_k=7, budget=None):
    return hom.ChromaticResult(None, None, None, max_k + 1, True, 0, 0.0)


def _no_two_steps(h, v):
    return families.TwoStepNeighborhoods(*[frozenset()] * 4)


def _no_common_neighbors(g, x, y):
    return push.AgreeDisagreeStats(frozenset(), frozenset())


_b0_pair_report = families.b0_pair_report


def _no_dominating_pair(g=None):
    return [dict(row, meets_bound=False) for row in _b0_pair_report(g)]


# suite, options, (module, name, replacement) faults, the checks they break,
# and the SHA-256 of the report with wallTime masked
FAULTS = {
    "certificates": (
        "theorem-antitwin", {"max_n": 3}, [(verify, "push_equivalent", lambda g, h: None)],
        {"antitwin/certificates"},
        "8e6a2972c2bc43d05162b3ef94e9b5cecf4f0822fec6b351664aa79e8be3aec5",
    ),
    "cross-class": (
        "theorem-antitwin", {"max_n": 3}, [(verify, "push_equivalent", lambda g, h: True)],
        {"antitwin/cross-class"},
        "61b70d7c53f2bc2eedd62395b742c8294845005ff449912d596e4e6386790bf5",
    ),
    "transfer": (
        "prop-transfer", {"count": 20, "seed": 1}, [(hom, "transfer", _assertion_error)],
        {"transfer/random"},
        "f22cbfce6c59e927e363b44085b43be76fbe5a98ab3f9a938584e4bb8f19f8f5",
    ),
    "split": (
        "lemma-split", {"max_n": 3, "max_tgt": 2}, [(hom, "brute_force_push_hom", _finds_nothing)],
        {"split/reduction-vs-brute"},
        "5d913fe3afd7836e6e1a4201e8fa7cbbc70f703c49ef31a9f1262cdd8b227a40",
    ),
    "gadget": (
        "gadgets-p3", {}, [(hom, "brute_force_push_hom", _finds_everything)],
        {"gadgets/reduction-vs-brute-on-gadget"},
        "69293b74caa955108a4852c546574b36a8c8ec1920e386b154a0aa8ab06662d5",
    ),
    "outerplanar5": (
        "outerplanar5",
        {"count": 3, "max_n": 12},
        [
            (coloring, "path_extend_to_c3", lambda bits, a, b: None),
            (coloring, "color_outerplanar_g5", _counterexample_found),
        ],
        {"outerplanar5/path-lemma-oracle", "outerplanar5/path-lemma-values", "outerplanar5/instances"},
        "9a364a7a06500a9f86b504a8a8b7a8a143e0c6bf042a29fcd88f1b453a22523b",
    ),
    "girth8-upper": (
        "girth8-upper",
        {"count": 3, "max_n": 40},
        [
            (coloring, "push_color_to_paley", _counterexample_found),
            (verify, "max_average_degree", lambda g: 0),
        ],
        {"girth8/sparse-instances", "girth8/discharge-contrapositive"},
        "bfbc510a4135d09ffbaa2298342b69160cd5493cdaef7f21d49a5836f93debd3",
    ),
    "sandwich": (
        "sandwich", {"max_n": 3}, [(hom, "oriented_chromatic_number", _no_value)],
        {"sandwich/exhaustive"},
        "d73f2302134c2cc91fa338c8b01acf8c69dc99d66a17ed822474d9a4b1260a83",
    ),
    "apex-triangle": (
        "gadgets-p3", {}, [(families, "two_step_neighborhoods", _no_two_steps)],
        {"gadgets/apex-triangle-identities"},
        "e9b88af55984c9d8df52b27da36d8cfeb7845704c456bf925698d7af366f2580",
    ),
    "non-identifiable-pairs": (
        "gadgets-p3", {}, [(push, "agree_disagree", _no_common_neighbors)],
        {"gadgets/order8-rigid", "gadgets/forced-pair-overlap"},
        "e90f4fb37fd9c99672d6adb61dc4d24446785d1a04f018f9917f64b58dfbf814",
    ),
    "dominating-pair": (
        "gadgets-p3", {}, [(families, "b0_pair_report", _no_dominating_pair)],
        {"gadgets/order8-dominating-pair"},
        "c15b4f98e1eb028cd8fbbf796338d0321b622d265454dbe3964224fc2014dd21",
    ),
    "girth8-lower": (
        "girth8-lower", {}, [(verify, "underlying_girth", lambda g: 7)],
        {"girth8/witness-shape"},
        "6351f4147fd2d4c591860279ccaf7e0180496444f9adf3dcae92b97092a7094b",
    ),
}


@pytest.mark.parametrize("case", FAULTS)
def test_injected_faults_fail_their_checks(monkeypatch, case):
    suite, options, faults, broken, digest = FAULTS[case]
    clean = {c.id: c.detail for c in run_suite(suite, **options).checks}
    for module, name, replacement in faults:
        monkeypatch.setattr(module, name, replacement)
    payload = run_suite(suite, **options).to_json()
    failed = [c for c in payload["checks"] if c["status"] == "fail"]
    assert {c["id"] for c in failed} == broken
    # every failing check keeps a case that can be replayed, and says what
    # failed rather than repeating what it says when it passes
    assert all("counterexample" in c for c in failed)
    assert [c["id"] for c in failed if c["detail"] == clean[c["id"]]] == []
    for check in payload["checks"]:
        check.pop("wallTime")
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_refutation_survives_a_later_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(hom, "brute_force_push_hom", _finds_nothing)
    report = run_suite("lemma-split", max_n=3, max_tgt=2, budget=SearchBudget(max_nodes=3))
    (check,) = report.to_json()["checks"]
    assert check["status"] == "fail"
    assert check["detail"].startswith("search truncated after")
    assert check["counterexample"] == {"graphs": ["oriented 0\n", "oriented 0\n"]}


_FORCED_PAIR_DETAIL = (
    "gadget constructed with validated 5-cycles; identity images give max "
    "agree/disagree 4 and 4 (>= 4); all 20 tournaments on <= 5 vertices "
    "refused (forced >= 4 common neighbors)"
)


@pytest.mark.parametrize(
    "nodes, status, detail",
    [
        (1, "exhausted-budget", "search truncated after 2 nodes"),
        (40, "exhausted-budget", "search truncated after 41 nodes"),
        (100, "exhausted-budget", "search truncated after 101 nodes"),
        (102, "pass", _FORCED_PAIR_DETAIL),
        (None, "pass", _FORCED_PAIR_DETAIL),
    ],
)
def test_forced_pair_overlap_spends_one_budget(nodes, status, detail):
    # the quotient searches of orders 1-5 take 3 + 8 + 15 + 32 + 44 = 102
    # nodes from one budget and try no tournament, so it runs out at 100
    # where no single search would, and 102 suffices
    budget = None if nodes is None else SearchBudget(max_nodes=nodes)
    report = run_suite("gadgets-p3", budget=budget)
    (check,) = [c for c in report.checks if c.id == "gadgets/forced-pair-overlap"]
    assert (check.status, check.detail) == (status, detail)
