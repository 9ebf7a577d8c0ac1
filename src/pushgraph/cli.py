"""Command-line surface: graph generation and I/O, push-equivalence and
splitability queries, homomorphism search, chromatic numbers, sparse
colorings, and the named verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
format error, 3 budget exhausted without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import coloring, families, hom, verify
from .graph import FormatError, GraphError, OrientedGraph, emit_graph, parse_graph
from .push import (
    is_splitable,
    parse_push_vector,
    push,
    push_equivalent,
    split_graph,
)
from .search import InconclusiveSearch, SearchBudget

SCHEMA_VERSION = verify.SCHEMA_VERSION

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_GENERATORS = {
    "c3": lambda args, seed: families.c3(),
    "uc4": lambda args, seed: families.uc4(),
    "paley-plus": lambda args, seed: families.paley_plus(),
    "b0": lambda args, seed: families.b0(),
    "y-gadget": lambda args, seed: families.y_gadget(),
    "girth8-witness": lambda args, seed: families.girth8_witness(),
    "cycle": lambda args, seed: families.directed_cycle(_param(args, "cycle <n>")),
    "path": lambda args, seed: families.oriented_path(_param(args, "path <pattern>", kind=str)),
    "zielonka": lambda args, seed: families.zielonka(_param(args, "zielonka <k>")),
    "zielonka-half": lambda args, seed: families.zielonka_half(_param(args, "zielonka-half <k>")),
    "random-outerplanar": lambda args, seed: families.random_outerplanar(
        _param(args, "random-outerplanar <n> <min-girth>", 0),
        _param(args, "random-outerplanar <n> <min-girth>", 1),
        seed,
    ),
    "random-sparse": lambda args, seed: families.random_sparse(
        _param(args, "random-sparse <n>"), seed
    ),
}


def _param(params: list[str], usage: str, index: int = 0, kind=int):
    try:
        return kind(params[index])
    except (IndexError, ValueError):
        raise GraphError(f"usage: gen {usage}") from None


def _load_graph(path: str) -> OrientedGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)


def _emit_json(payload: dict, args) -> None:
    payload = {"schemaVersion": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, indent=2, default=str)
    if getattr(args, "json", None):
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    print(text)


def _witness(hit) -> hom.PushHomWitness:
    """A push witness as is; a plain mapping as one with an empty push vector."""
    if isinstance(hit, hom.PushHomWitness):
        return hit
    return hom.PushHomWitness(frozenset(), hit)


def cmd_gen(args) -> int:
    if args.family not in _GENERATORS:
        raise GraphError(
            f"unknown family {args.family!r}; known: {', '.join(sorted(_GENERATORS))}"
        )
    g = _GENERATORS[args.family](args.params, args.seed)
    if args.report:
        report: dict = {"family": args.family, "n": g.n, "arcs": len(g.arcs)}
        if args.family == "b0":
            report["dominatingPairs"] = families.b0_pair_report(g)
        if args.family == "zielonka" or args.family == "zielonka-half":
            report["weightSplit"] = families.zielonka_weight_split_report(
                int(args.params[0])
            )
        _emit_json(report, args)
    else:
        text = emit_graph(g)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    return EXIT_OK


def cmd_equiv(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.other)
    cert = push_equivalent(g, h)
    payload: dict = {"equivalent": cert is not None}
    if cert is not None:
        payload["certificate"] = {
            "pushVector": sorted(cert.push_vector),
            "mapping": list(cert.mapping),
            "verified": True,
        }
    _emit_json(payload, args)
    return EXIT_OK


def cmd_split(args) -> int:
    g = _load_graph(args.graph)
    cert = is_splitable(g)
    payload: dict = {"splitable": cert is not None}
    if cert is not None:
        half = split_graph(g, cert)
        payload["certificate"] = {
            "partOne": list(cert.part_one),
            "partTwo": list(cert.part_two),
            "verified": True,
        }
        payload["splitGraph"] = emit_graph(half)
    _emit_json(payload, args)
    return EXIT_OK


def cmd_hom(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.other)
    search = hom.find_push_hom if args.push else hom.find_hom
    res = search(g, h, _budget(args))
    payload: dict = {
        "kind": "push" if args.push else "oriented",
        "status": res.status,
        "nodes": res.nodes,
    }
    if res.hit is not None:
        payload["witness"] = _witness(res.hit).to_json(h)
    _emit_json(payload, args)
    return EXIT_OK if res.complete else EXIT_BUDGET


def cmd_push(args) -> int:
    g = _load_graph(args.graph)
    vector = parse_push_vector(Path(args.vector).read_text(encoding="utf-8"))
    sys.stdout.write(emit_graph(push(g, vector)))
    return EXIT_OK


def cmd_chroma(args) -> int:
    g = _load_graph(args.graph)
    chromatic = hom.push_chromatic_number if args.kind == "push" else hom.oriented_chromatic_number
    res = chromatic(g, args.max_k, _budget(args))
    payload: dict = {
        "kind": args.kind,
        "maxK": args.max_k,
        "complete": res.complete,
        "nodes": res.nodes,
    }
    if res.value is not None:
        payload["value"] = res.value
        payload["target"] = emit_graph(res.target)
        payload["witness"] = _witness(res.witness).to_json(res.target)
    else:
        payload["lowerBound"] = res.lower_bound
        payload["value"] = None
    _emit_json(payload, args)
    return EXIT_OK if res.complete else EXIT_BUDGET


def cmd_color(args) -> int:
    g = _load_graph(args.graph)
    if args.audit:
        report = coloring.discharge_audit(g)
        minimum = report.min_modified_degree
        rows = [
            {"vertex": r.vertex, "degree": r.degree, "degStar": str(r.modified_degree)}
            for r in report.rows
        ]
        _emit_json(
            {
                "audit": rows,
                "minDegStar": None if minimum is None else str(minimum),
                "meetsEightThirds": report.meets_eight_thirds,
            },
            args,
        )
        return EXIT_OK
    try:
        if args.target == "sparse":
            cert = coloring.push_color_to_paley(g)
        else:
            cert = coloring.color_outerplanar_g5(g, _budget(args))
    except InconclusiveSearch as exc:
        _emit_json({"status": "budget-exhausted", "detail": str(exc)}, args)
        return EXIT_BUDGET
    except coloring.CounterexampleFound as exc:
        _emit_json(
            {"status": "fail", "detail": exc.detail, "counterexample": exc.graph_text},
            args,
        )
        return EXIT_FAIL
    payload = {
        "status": "found",
        "witness": cert.witness.to_json(cert.target),
        "reductions": len(cert.trace),
    }
    _emit_json(payload, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    options = {
        "max_n": args.max_n,
        "seed": args.seed,
        "count": args.count,
        "budget": _budget(args),
    }
    try:
        report = verify.run_suite(args.suite, **options)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    _emit_json(report.to_json(), args)
    for check in sorted(report.checks, key=lambda c: c.id):
        print(f"[{check.status:>16}] {check.id}: {check.detail}", file=sys.stderr)
    if not report.all_pass:
        return EXIT_BUDGET if report.inconclusive and all(
            c.status != "fail" for c in report.checks
        ) else EXIT_FAIL
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushgraph",
        description="oriented graphs under the vertex-push operation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True, seed=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="deterministic seed")
        p.add_argument("--json", help="also write the JSON report to this path")
        if budget:
            p.add_argument("--budget-nodes", type=int, default=SearchBudget.max_nodes)
            p.add_argument("--budget-secs", type=float, default=SearchBudget.max_seconds)

    p = sub.add_parser("gen", help="emit a named graph in the text format")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output")
    p.add_argument("--report", action="store_true", help="emit the construction report as JSON")
    common(p, budget=False, seed=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("equiv", help="decide push equivalence of two graphs")
    p.add_argument("graph")
    p.add_argument("other")
    common(p, budget=False)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("split", help="find an anti-twin split of a graph")
    p.add_argument("graph")
    common(p, budget=False)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("hom", help="search a (push) homomorphism between two graphs")
    p.add_argument("graph")
    p.add_argument("other")
    p.add_argument("--push", action="store_true", help="search a push homomorphism")
    common(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("push", help="apply a push-vector file to a graph")
    p.add_argument("graph")
    p.add_argument("vector")
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("chroma", help="exact chromatic number over tournament targets")
    p.add_argument("kind", choices=("push", "oriented"))
    p.add_argument("graph")
    p.add_argument("--max-k", type=int, default=7)
    common(p)
    p.set_defaults(func=cmd_chroma)

    p = sub.add_parser("color", help="constructive push-colorings")
    p.add_argument("target", choices=("sparse", "outerplanar5"))
    p.add_argument("graph")
    p.add_argument("--audit", action="store_true", help="emit the discharge report instead")
    common(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(verify.SUITES)}")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    common(p, seed=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
