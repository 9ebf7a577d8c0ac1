import json
import random

import pytest

from pushgraph import OrientedGraph, push
from pushgraph.cli import main
from pushgraph.graph import emit_graph, parse_graph
from pushgraph.families import directed_cycle, random_outerplanar, uc4

from oracles import push_by_hand, time_limit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_round_trips(capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle", "9")
    assert code == 0
    assert parse_graph(out) == directed_cycle(9)


def test_gen_to_file(tmp_path, capsys):
    target = tmp_path / "uc4.graph"
    code, _, _ = run_cli(capsys, "gen", "uc4", "-o", str(target))
    assert code == 0
    assert parse_graph(target.read_text()) == uc4()


def test_gen_report_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "b0", "--report")
    assert code == 0
    payload = json.loads(out)
    assert payload["schemaVersion"] == 1
    assert payload["n"] == 8
    winners = [r["pair"] for r in payload["dominatingPairs"] if r["meets_bound"]]
    assert winners == [[3, 7]]
    # the report states what was built and checks nothing: `verify` does
    assert "constructionValidated" not in payload


def test_gen_unknown_family(capsys):
    code, _, err = run_cli(capsys, "gen", "mystery")
    assert code == 2
    assert "unknown family" in err


def test_equiv_tournaments(tmp_path, capsys):
    from pushgraph.hom import enumerate_tournaments

    a, b = enumerate_tournaments(3)
    pa, pb = tmp_path / "a.graph", tmp_path / "b.graph"
    pa.write_text(emit_graph(a))
    pb.write_text(emit_graph(b))
    with time_limit(30):
        code, out, _ = run_cli(capsys, "equiv", str(pa), str(pb))
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["certificate"]["verified"] is True


def test_equiv_square_vs_uc4(tmp_path, capsys):
    pa, pb = tmp_path / "c4.graph", tmp_path / "uc4.graph"
    pa.write_text(emit_graph(directed_cycle(4)))
    pb.write_text(emit_graph(uc4()))
    code, out, _ = run_cli(capsys, "equiv", str(pa), str(pb))
    assert code == 0
    assert json.loads(out)["equivalent"] is False


def test_split_zielonka(tmp_path, capsys):
    from pushgraph.families import zielonka

    path = tmp_path / "z3.graph"
    path.write_text(emit_graph(zielonka(3)))
    code, out, _ = run_cli(capsys, "split", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["splitable"] is True
    assert parse_graph(payload["splitGraph"]).n == 6


def test_hom_push_refusal_exit_codes(tmp_path, capsys):
    pa, pb = tmp_path / "w.graph", tmp_path / "c3.graph"
    from pushgraph.families import girth8_witness, c3

    pa.write_text(emit_graph(girth8_witness()))
    pb.write_text(emit_graph(c3()))
    code, out, _ = run_cli(capsys, "hom", "--push", str(pa), str(pb))
    assert code == 0
    assert json.loads(out)["status"] == "none"
    code, out, _ = run_cli(
        capsys, "hom", "--push", str(pa), str(pb), "--budget-nodes", "2"
    )
    assert code == 3
    assert json.loads(out)["status"] == "budget-exhausted"


def test_hom_witness_json(tmp_path, capsys):
    pa, pb = tmp_path / "c9.graph", tmp_path / "c3.graph"
    from pushgraph.families import c3

    pa.write_text(emit_graph(directed_cycle(9)))
    pb.write_text(emit_graph(c3()))
    code, out, _ = run_cli(capsys, "hom", "--push", str(pa), str(pb))
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"]["verified"] is True
    assert parse_graph(payload["witness"]["target"]).n == 3


def test_push_command(tmp_path, capsys):
    graph_file = tmp_path / "c3.graph"
    vector_file = tmp_path / "vec.push"
    graph_file.write_text(emit_graph(directed_cycle(3)))
    vector_file.write_text("push 1\nv 1\n")
    code, out, _ = run_cli(capsys, "push", str(graph_file), str(vector_file))
    assert code == 0
    assert set(parse_graph(out).arcs) == {(1, 0), (2, 1), (2, 0)}


def test_push_takes_no_json_flag(tmp_path, capsys):
    # push prints a graph, never a JSON report, so --json is a usage error
    graph_file = tmp_path / "c3.graph"
    vector_file = tmp_path / "vec.push"
    graph_file.write_text(emit_graph(directed_cycle(3)))
    vector_file.write_text("push 1\nv 1\n")
    report = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["push", str(graph_file), str(vector_file), "--json", str(report)])
    assert exc.value.code == 2
    assert not report.exists()
    assert "--json" in capsys.readouterr().err


def test_chroma_values(tmp_path, capsys):
    path = tmp_path / "c9.graph"
    path.write_text(emit_graph(directed_cycle(9)))
    code, out, _ = run_cli(capsys, "chroma", "push", str(path), "--max-k", "4")
    assert code == 0
    assert json.loads(out)["value"] == 3
    code, out, _ = run_cli(capsys, "chroma", "oriented", str(path), "--max-k", "3")
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_chroma_budget_exhaustion_exits_3(tmp_path, capsys):
    from pushgraph.families import girth8_witness

    path = tmp_path / "witness.graph"
    path.write_text(emit_graph(girth8_witness()))
    # orders 0-2 take 132 nodes, so the budget runs out at order 3
    code, out, _ = run_cli(
        capsys, "chroma", "push", str(path), "--max-k", "3", "--budget-nodes", "500"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["complete"] is False
    assert payload["value"] is None
    assert payload["lowerBound"] == 3


def test_chroma_beyond_the_recursion_limit(tmp_path, capsys):
    # the quotient search keeps one choice point per vertex of a 5000-vertex
    # path, deeper than Python's default stack
    rng = random.Random(3)
    arcs = [(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(4999)]
    g = OrientedGraph(5000, tuple(arcs))
    path = tmp_path / "path.graph"
    path.write_text(emit_graph(g))
    with time_limit(30):
        code, out, _ = run_cli(capsys, "chroma", "push", str(path), "--max-k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    witness = payload["witness"]
    target = parse_graph(witness["target"])
    pushed = push_by_hand(g, witness["pushVector"])
    assert all(target.has_arc(witness["mapping"][u], witness["mapping"][v]) for u, v in pushed.arcs)


def test_color_sparse_and_audit(tmp_path, capsys):
    path = tmp_path / "c9.graph"
    path.write_text(emit_graph(directed_cycle(9)))
    code, out, _ = run_cli(capsys, "color", "sparse", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert payload["witness"]["verified"] is True
    code, out, _ = run_cli(capsys, "color", "sparse", str(path), "--audit")
    assert code == 0
    audit = json.loads(out)
    assert audit["minDegStar"] == "2"
    assert audit["meetsEightThirds"] is False


def test_audit_of_empty_graph_has_null_minimum(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("oriented 0\n")
    code, out, _ = run_cli(capsys, "color", "sparse", str(path), "--audit")
    assert code == 0
    audit = json.loads(out)
    assert audit["audit"] == []
    assert audit["minDegStar"] is None
    assert audit["meetsEightThirds"] is True


def test_color_outerplanar(tmp_path, capsys):
    from pushgraph.families import random_outerplanar

    path = tmp_path / "outer.graph"
    path.write_text(emit_graph(random_outerplanar(30, 5, seed=4)))
    code, out, _ = run_cli(capsys, "color", "outerplanar5", str(path))
    assert code == 0
    assert json.loads(out)["status"] == "found"


def test_color_outerplanar_budget_exhaustion_exits_3(tmp_path, capsys):
    path = tmp_path / "outer.graph"
    path.write_text(emit_graph(random_outerplanar(30, 5, seed=4)))
    code, out, _ = run_cli(capsys, "color", "outerplanar5", str(path), "--budget-nodes", "1")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "budget-exhausted"
    assert "witness" not in payload


def test_color_outerplanar5_beyond_the_recursion_limit(tmp_path, capsys):
    g = random_outerplanar(3000, 5, 15)
    path = tmp_path / "outer.graph"
    path.write_text(emit_graph(g))
    with time_limit(30):
        code, out, _ = run_cli(capsys, "color", "outerplanar5", str(path))
    assert code == 0
    witness = json.loads(out)["witness"]
    assert witness["verified"] is True
    target = parse_graph(witness["target"])
    mapping = witness["mapping"]
    pushed = push_by_hand(g, witness["pushVector"])
    assert all(target.has_arc(mapping[u], mapping[v]) for u, v in pushed.arcs)


def test_verify_suite_exit_and_json(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "tournament3", "--json", str(report_path)
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["summary"]["allPass"] is True
    assert "tournament3/single-class" in err


@pytest.mark.parametrize(
    "suite_args",
    [
        ["girth8-lower"],
        ["gadgets-p3"],
        ["sandwich", "--max-n", "3"],
        ["lemma-split", "--max-n", "3"],
        ["outerplanar5", "--count", "1", "--max-n", "10"],
    ],
    ids=lambda suite_args: suite_args[0],
)
def test_verify_budget_exhaustion_exits_3(capsys, suite_args):
    code, out, _ = run_cli(capsys, "verify", *suite_args, "--budget-nodes", "1")
    assert code == 3
    payload = json.loads(out)
    assert payload["summary"]["exhaustedBudget"] >= 1
    assert payload["summary"]["fail"] == 0


OUT_OF_RANGE_SIZES = [
    (["prop-transfer", "--count", "-3"], "--count must be at least 0"),
    (["girth8-upper", "--count", "-2"], "--count must be at least 0"),
    (["theorem-antitwin", "--max-n", "-1"], "--max-n must be at least 0"),
    (["lemma-split", "--max-n", "-2"], "--max-n must be at least 0"),
    (["sandwich", "--max-n", "-1"], "--max-n must be at least 0"),
    (["outerplanar5", "--max-n", "4"], "--max-n must be at least 5"),
    (["prop-transfer", "--max-n", "0"], "--max-n must be at least 1"),
]


@pytest.mark.parametrize(
    "suite_args, message", OUT_OF_RANGE_SIZES, ids=[" ".join(a) for a, _ in OUT_OF_RANGE_SIZES]
)
def test_verify_out_of_range_sizes_exit_2(capsys, suite_args, message):
    code, out, err = run_cli(capsys, "verify", *suite_args)
    assert code == 2
    assert out == ""
    assert message in err


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_format_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("oriented 2\na 0 0\n")
    other = tmp_path / "c3.graph"
    other.write_text(emit_graph(directed_cycle(3)))
    code, _, err = run_cli(capsys, "hom", str(bad), str(other))
    assert code == 2
    assert "format error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "equiv", "nope.graph", "also-nope.graph")
    assert code == 2


def test_equiv_beyond_the_recursion_limit(tmp_path, capsys):
    # 2000-vertex anti-twinned graphs: deeper than Python's default stack
    g = random_outerplanar(1000, 5, 1)
    rng = random.Random(2)
    h = push(g, [v for v in range(g.n) if rng.random() < 0.5])
    perm = list(range(g.n))
    rng.shuffle(perm)
    pa, pb = tmp_path / "a.graph", tmp_path / "b.graph"
    pa.write_text(emit_graph(g))
    pb.write_text(emit_graph(h.relabel(perm)))
    with time_limit(30):
        code, out, _ = run_cli(capsys, "equiv", str(pa), str(pb))
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["certificate"]["verified"] is True
