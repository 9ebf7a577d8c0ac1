import pytest

from pushgraph.verify import (
    SUITES,
    enumerate_oriented_graphs,
    nine_tournament_constraint_search,
    run_suite,
)


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


def test_small_sandwich_suite_passes():
    report = run_suite("sandwich", max_n=4)
    assert report.all_pass


def test_girth8_lower_suite_passes():
    report = run_suite("girth8-lower")
    assert report.all_pass


def test_zielonka_suite_passes():
    report = run_suite("zielonka")
    assert report.all_pass


def test_nine_tournament_search_empty_but_not_vacuous():
    constrained = nine_tournament_constraint_search()
    relaxed = nine_tournament_constraint_search(enforce_pairs=False)
    assert constrained["survivors"] == 0
    assert relaxed["survivors"] > 0
