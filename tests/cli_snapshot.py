"""Run a fixed list of CLI commands in-process and save what each one prints.

Usage:  PYTHONPATH=src python tests/cli_snapshot.py OUT_DIR

For every command, OUT_DIR gets NAME.out (stdout, with each "wallTime" value
masked as X), NAME.err (stderr) and NAME.code (the exit code).  Inputs are
written to a temporary directory first.  Run it on two source trees and
compare them with `diff -r` to show that a change keeps every CLI output
byte-identical.  pytest does not collect this file (its name lacks test_).

The list: the ten verify suites at default options, with --budget-nodes 1 and
with --budget-nodes 40; hom, chroma and color where a witness is found, where
none exists and where the budget runs out; color outerplanar5 on 4000
vertices, a deep solver search; color sparse on 9, 300, 2000 and
20000 vertices, with and without --audit; equiv, split and push; and every
gen family.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

from pushgraph import cli, families, verify
from pushgraph.graph import emit_graph

WALL_TIME = re.compile(r'"wallTime": [-+0-9.e]+')

GEN = {
    "c3": [], "uc4": [], "paley-plus": [], "b0": [], "y-gadget": [], "girth8-witness": [],
    "cycle": ["7"], "path": ["+-+-"], "zielonka": ["2"], "zielonka-half": ["2"],
    "random-outerplanar": ["20", "5"], "random-sparse": ["30"],
}


def write_inputs(tmp: Path) -> dict[str, str]:
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
    }
    paths = {}
    for name, g in graphs.items():
        paths[name] = str(tmp / f"{name}.graph")
        Path(paths[name]).write_text(emit_graph(g), encoding="utf-8")
    paths["vector"] = str(tmp / "vector.push")
    Path(paths["vector"]).write_text("push 3\nv 0\nv 2\nv 5\n", encoding="utf-8")
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
        "split": ["split", p["uc4"]],
        "push": ["push", p["w"], p["vector"]],
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
