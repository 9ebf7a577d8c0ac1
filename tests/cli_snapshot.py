"""Run a fixed list of CLI commands in-process and save what each one prints.

Usage:  PYTHONPATH=src python tests/cli_snapshot.py OUT_DIR

For every command, OUT_DIR gets NAME.out (stdout, with each "wallTime" value
masked as X), NAME.err (stderr) and NAME.code (the exit code).  Inputs are
written to a temporary directory first.  Run it on two source trees and
compare them with `diff -r` to show that a change keeps every CLI output
byte-identical.  pytest does not collect this file (its name lacks test_).

The list: the ten verify suites at default options, with --budget-nodes 1 and
with --budget-nodes 40, and gadgets-p3 with --budget-nodes 100; hom, chroma
and color where a witness is found, where none exists and where the budget
runs out; color outerplanar5 on 4000 vertices, a deep solver search; color
sparse on 9, 300, 2000 and 20000 vertices, with and without --audit; equiv on
a 9-cycle, and on a 128-vertex sparse graph against a pushed and relabelled
copy, a double-edge swap with the same in- and out-degrees, a copy with one
cycle arc reversed and a copy with one arc fewer; split; push with a vector
file and with one that lists a vertex twice; and every gen family.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
import tempfile
from pathlib import Path

from pushgraph import cli, families, verify
from pushgraph.graph import OrientedGraph, emit_graph
from pushgraph.push import push

WALL_TIME = re.compile(r'"wallTime": [-+0-9.e]+')

GEN = {
    "c3": [], "uc4": [], "paley-plus": [], "b0": [], "y-gadget": [], "girth8-witness": [],
    "cycle": ["7"], "path": ["+-+-"], "zielonka": ["2"], "zielonka-half": ["2"],
    "random-outerplanar": ["20", "5"], "random-sparse": ["30"],
}


def pushed_copy(g: OrientedGraph, rng: random.Random) -> OrientedGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return push(g, [v for v in range(g.n) if rng.random() < 0.5]).relabel(perm)


def degree_pairs(g: OrientedGraph) -> list[tuple[int, int]]:
    """The sorted degree pairs of the underlying edges: a push and relabel
    invariant."""
    degree = list(map(len, g.adjacency))
    return sorted(tuple(sorted((degree[u], degree[v]))) for u, v in g.arcs)


def degree_swap(g: OrientedGraph, rng: random.Random) -> OrientedGraph:
    """Replace arcs (a, b), (c, d) by (a, d), (c, b), keeping every in- and
    out-degree, where that changes the degree pairs, so that the result is
    not push-equivalent to g."""
    arcs = list(g.arcs)
    adjacent = {frozenset(arc) for arc in arcs}
    while True:
        (a, b), (c, d) = rng.sample(arcs, 2)
        if len({a, b, c, d}) == 4 and not adjacent & {frozenset((a, d)), frozenset((c, b))}:
            rest = [arc for arc in arcs if arc not in ((a, b), (c, d))]
            swapped = OrientedGraph(g.n, tuple(rest + [(a, d), (c, b)]))
            if degree_pairs(swapped) != degree_pairs(g):
                return swapped


def reverse_cycle_arc(g: OrientedGraph) -> OrientedGraph:
    """Reverse the first arc that lies on a cycle: the underlying graph stays
    the same, so push_equivalent cannot refute the pair by its colours."""
    for u, v in g.arcs:
        rest = [arc for arc in g.arcs if arc != (u, v)]
        adjacency = OrientedGraph(g.n, tuple(rest)).adjacency
        reached, frontier = {u}, [u]
        while frontier:
            x = frontier.pop()
            for y in adjacency[x]:
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        if v in reached:
            return OrientedGraph(g.n, tuple(rest + [(v, u)]))
    raise ValueError("the graph is a forest")


def write_inputs(tmp: Path) -> dict[str, str]:
    rng = random.Random(11)
    s128 = families.random_sparse(128, seed=5)
    graphs = {
        "c3": families.c3(),
        "paley": families.paley_plus(),
        "w": families.girth8_witness(),
        "cycle9": families.directed_cycle(9),
        "cycle9-relabelled": families.directed_cycle(9).relabel([(2 * i) % 9 for i in range(9)]),
        "uc4": families.uc4(),
        "op30": families.random_outerplanar(30, 5, seed=4),
        "op200": families.random_outerplanar(200, 5, seed=1),
        "op4000": families.random_outerplanar(4000, 5, seed=1),
        **{f"s{n}": families.random_sparse(n, seed=n % 7) for n in (9, 40, 300, 2000, 20000)},
        "s128": s128,
        "s128-pushed": pushed_copy(s128, rng),
        "s128-swapped": degree_swap(s128, rng),
        "s128-reversed": reverse_cycle_arc(s128),
        "s128-less": OrientedGraph(128, s128.arcs[1:]),
    }
    paths = {}
    for name, g in graphs.items():
        paths[name] = str(tmp / f"{name}.graph")
        Path(paths[name]).write_text(emit_graph(g), encoding="utf-8")
    paths["vector"] = str(tmp / "vector.push")
    Path(paths["vector"]).write_text("push 3\nv 0\nv 2\nv 5\n", encoding="utf-8")
    paths["vector-repeated"] = str(tmp / "vector-repeated.push")
    Path(paths["vector-repeated"]).write_text("push 2\nv 1\nv 1\n", encoding="utf-8")
    return paths


def commands(p: dict[str, str]) -> dict[str, list[str]]:
    cmds = {}
    for suite in verify.SUITES:
        cmds[f"verify-{suite}"] = ["verify", suite]
        for nodes in ("1", "40"):
            cmds[f"verify-{suite}-budget{nodes}"] = ["verify", suite, "--budget-nodes", nodes]
    cmds.update({
        "hom-found": ["hom", p["cycle9"], p["c3"]],
        "hom-push-found": ["hom", p["w"], p["paley"], "--push"],
        "hom-push-none": ["hom", p["w"], p["c3"], "--push"],
        "hom-none": ["hom", p["uc4"], p["c3"]],
        "hom-push-budget": ["hom", p["op200"], p["c3"], "--push", "--budget-nodes", "5"],
        "chroma-push-found": ["chroma", "push", p["w"]],
        "chroma-oriented-found": ["chroma", "oriented", p["cycle9"]],
        "chroma-push-none": ["chroma", "push", p["w"], "--max-k", "3"],
        "chroma-budget": ["chroma", "oriented", p["s40"], "--budget-nodes", "1"],
        "color-outerplanar5-found": ["color", "outerplanar5", p["op200"]],
        "color-outerplanar5-deep": ["color", "outerplanar5", p["op4000"]],
        "color-outerplanar5-none": ["color", "outerplanar5", p["w"], "--budget-nodes", "100"],
        "color-outerplanar5-budget": ["color", "outerplanar5", p["op30"], "--budget-nodes", "1"],
        "color-sparse-dense": ["color", "sparse", p["paley"]],
        "equiv-pos": ["equiv", p["cycle9"], p["cycle9-relabelled"]],
        "equiv-neg": ["equiv", p["cycle9"], p["w"]],
        "equiv-s128-pushed": ["equiv", p["s128"], p["s128-pushed"]],
        "equiv-s128-swapped": ["equiv", p["s128"], p["s128-swapped"]],
        "equiv-s128-reversed": ["equiv", p["s128"], p["s128-reversed"]],
        "equiv-s128-arcs": ["equiv", p["s128"], p["s128-less"]],
        "split": ["split", p["uc4"]],
        "push": ["push", p["w"], p["vector"]],
        "push-repeated-vertex": ["push", p["w"], p["vector-repeated"]],
        "verify-gadgets-p3-budget100": ["verify", "gadgets-p3", "--budget-nodes", "100"],
    })
    for n in (9, 300, 2000, 20000):
        cmds[f"color-sparse-{n}"] = ["color", "sparse", p[f"s{n}"]]
        cmds[f"color-sparse-{n}-audit"] = ["color", "sparse", p[f"s{n}"], "--audit"]
    for family, params in GEN.items():
        cmds[f"gen-{family}"] = ["gen", family, *params]
    for family in ("b0", "zielonka", "random-sparse"):
        cmds[f"gen-{family}-report"] = ["gen", family, *GEN[family], "--report", "--seed", "3"]
    return cmds


def run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return WALL_TIME.sub('"wallTime": X', out.getvalue()), err.getvalue(), code


def main(out_dir: str) -> None:
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands(write_inputs(Path(tmp))).items():
            stdout, stderr, code = run(argv)
            (target / f"{name}.out").write_text(stdout, encoding="utf-8")
            (target / f"{name}.err").write_text(stderr.replace(tmp, "TMP"), encoding="utf-8")
            (target / f"{name}.code").write_text(f"{code}\n", encoding="utf-8")
            print(f"{code}  {name}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_snapshot.py OUT_DIR")
    main(sys.argv[1])
