"""The three benchmark workloads: inputs made at set-up, the timed program
call of each operation, and the independent check of its answer.

classify-small covers every class, so its run seed draws every input (push
vectors, relabellings, partners, order) without changing what is measured.
The graphs and queries of equiv-mid and color-large come from CORPUS_SEED
and the run seed only orders them: whether a push-equivalence query blows up
depends on its random relabelling, whether the outerplanar colourer
overflows the stack depends on the graph, and the slowest decile of a
colour run is a handful of instances, so a corpus drawn afresh per seed
moves failed_ratio and op_p90_ms by more than their bounds.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checker
from checker import require

CORPUS_SEED = 20150826

MODULES = ("graph", "isomorphism", "push", "hom", "coloring", "density", "families", "verify", "cli")


def load_program() -> SimpleNamespace:
    """Import pushgraph and return its modules by short name.

    `pushgraph.push` names the function on the package, so modules are
    fetched from the import system rather than as package attributes.
    """
    return SimpleNamespace(**{m: importlib.import_module(f"pushgraph.{m}") for m in MODULES})


@dataclass
class Op:
    label: str
    call: Callable[[], object]  # the timed program call
    check: Callable[[object], None]  # raises CheckFailed on a wrong answer
    key: object = None


def corpus_rng(*instance) -> random.Random:
    """The generator of one pinned corpus instance, independent of the others."""
    return random.Random("/".join(map(str, (CORPUS_SEED, *instance))))


def log_grid(lo: int, hi: int, count: int) -> list[int]:
    """Stratified log-uniform sizes: the centre of each of `count` equal bins of log n."""
    return [round(lo * (hi / lo) ** ((j + 0.5) / count)) for j in range(count)]


def random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def push_relabel_copy(pg, g, rng: random.Random):
    """A push-equivalent copy of g, built by this module's own push and relabel."""
    vector = [v for v in range(g.n) if rng.random() < 0.5]
    arcs = checker.relabel_arcs(checker.push_arcs(g.arcs, vector), random_perm(rng, g.n))
    return pg.graph.OrientedGraph(g.n, tuple(arcs))


class Workload:
    name: str
    deadline_s: float  # per-operation deadline, well clear of every finishing operation

    def setup(self, pg, seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def check_pass(self, ops: list[Op], outputs: list) -> dict[int, str]:
        """Checks that need a whole pass; returns wrong answers by operation index."""
        return {}


# -- classify-small -------------------------------------------------------------


class ClassifySmall(Workload):
    """One operation classifies one oriented-graph class with 1 <= n <= 5."""

    name = "classify-small"
    # the slowest class that finishes takes about 0.75 s; the empty graph on
    # five vertices needs about 50 s for its anti-twin code
    deadline_s = 2.0

    def setup(self, pg, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(seed)
        classes = [g for n in range(1, 6) for g in pg.verify.enumerate_oriented_graphs(n)]
        for k in range(6):  # chromatic searches use tournaments up to order 5
            pg.hom.enumerate_tournaments(k)
        by_shape: dict[tuple[int, int], list[int]] = {}
        for index, g in enumerate(classes):
            by_shape.setdefault((g.n, len(g.arcs)), []).append(index)
        ops = []
        for index in rng.sample(range(len(classes)), len(classes)):
            g = classes[index]
            same_shape = [i for i in by_shape[(g.n, len(g.arcs))] if i != index] or [index]
            partner = rng.choice(same_shape)
            copy = push_relabel_copy(pg, g, rng)
            ops.append(
                Op(
                    f"class {index} (n={g.n}, m={len(g.arcs)})",
                    self._call(pg, g, copy, classes[partner]),
                    self._check(g, copy, classes[partner]),
                    key=(index, partner),
                )
            )
        return ops

    @staticmethod
    def _call(pg, g, copy, partner):
        def call():
            max_k = min(g.n, 7)
            return (
                pg.isomorphism.canonical_code(pg.push.anti_twinned(g)),
                tuple(pg.push.push_orbit(g)),
                pg.push.push_equivalent(g, copy),
                pg.push.push_equivalent(g, partner),
                pg.hom.push_chromatic_number(g, max_k=max_k),
                pg.hom.oriented_chromatic_number(g, max_k=max_k),
            )

        return call

    @staticmethod
    def _check(g, copy, partner):
        def check(out):
            code, orbit, copy_cert, partner_cert, pushy, ordinary = out
            require(isinstance(code, bytes) and code.startswith(f"{2 * g.n}|".encode()), "bad anti-twin code")
            require(0 < len(orbit) <= 2 ** (g.n - 1), "push orbit size out of range")
            require(list(orbit) == sorted(set(orbit)), "push orbit not sorted and distinct")
            require(copy_cert is not None, "pushed and relabelled copy refused")
            checker.check_push_isomorphism(g, copy, copy_cert.push_vector, copy_cert.mapping)
            if partner_cert is not None:
                checker.check_push_isomorphism(g, partner, partner_cert.push_vector, partner_cert.mapping)
            checker.check_sandwich(
                checker.check_chromatic(g, pushy, pushy=True),
                checker.check_chromatic(g, ordinary, pushy=False),
            )

        return check

    def check_pass(self, ops: list[Op], outputs: list) -> dict[int, str]:
        """Theorem-antitwin agreement over the classes whose operation succeeded:
        anti-twin codes and push orbits must partition them alike, and every
        partner verdict must match the orbit keys."""
        code = {ops[i].key[0]: out[0] for i, out in enumerate(outputs) if out is not None}
        orbit = {ops[i].key[0]: out[1] for i, out in enumerate(outputs) if out is not None}
        checker.check_partitions_agree(code, orbit)
        wrong = {}
        for i, out in enumerate(outputs):
            index, partner = ops[i].key
            if out is None or partner not in orbit:
                continue
            if (out[3] is not None) != (orbit[index] == orbit[partner]):
                wrong[i] = f"partner verdict disagrees with the push orbits of classes {index}, {partner}"
        return wrong


# -- equiv-mid ------------------------------------------------------------------


class EquivMid(Workload):
    """push_equivalent queries on outerplanar girth-5 and sparse graphs, 32..128 vertices."""

    name = "equiv-mid"
    # the slowest query that finishes takes about 0.65 s; the backtracking
    # blow-ups of the pinned corpus take 1.3 s, 1.7 s and over 10 s, so the
    # deadline sits about 1.4 times from both
    deadline_s = 0.9
    per_family = 24

    def setup(self, pg, seed: int, workdir: Path) -> list[Op]:
        ops = []
        for n in log_grid(32, 128, self.per_family):
            for family in ("outerplanar", "sparse"):
                corpus = corpus_rng(self.name, family, n)
                if family == "outerplanar":
                    g = pg.families.random_outerplanar(n, 5, corpus.randrange(2**32))
                else:
                    g = pg.families.random_sparse(n, corpus.randrange(2**32))
                copy = push_relabel_copy(pg, g, corpus)
                other = self._negative(pg, g, corpus)
                ops.append(Op(f"{family} n={n} positive", self._query(pg, g, copy), self._positive(g, copy)))
                ops.append(Op(f"{family} n={n} negative", self._query(pg, g, other), self._refused))
        random.Random(seed).shuffle(ops)
        return ops

    @staticmethod
    def _negative(pg, g, rng: random.Random):
        """Same order, arc count and in/out degrees, but a different underlying
        neighbour-degree profile, so not push-equivalent (see checker)."""
        arcs = list(g.arcs)
        profile = checker.neighbor_profile(g.n, arcs)
        present = {frozenset(arc) for arc in arcs}
        for _ in range(1000):
            i, j = rng.sample(range(len(arcs)), 2)
            (a, b), (c, d) = arcs[i], arcs[j]
            if len({a, b, c, d}) < 4 or {a, d} in present or {c, b} in present:
                continue
            swapped = [arc for k, arc in enumerate(arcs) if k not in (i, j)] + [(a, d), (c, b)]
            if checker.neighbor_profile(g.n, swapped) != profile:
                relabelled = checker.relabel_arcs(swapped, random_perm(rng, g.n))
                return pg.graph.OrientedGraph(g.n, tuple(relabelled))
        raise RuntimeError(f"no separating double-edge swap found for a graph on {g.n} vertices")

    @staticmethod
    def _query(pg, g, h):
        return lambda: pg.push.push_equivalent(g, h)

    @staticmethod
    def _positive(g, copy):
        def check(cert):
            require(cert is not None, "pushed and relabelled copy refused")
            checker.check_push_isomorphism(g, copy, cert.push_vector, cert.mapping)

        return check

    @staticmethod
    def _refused(cert):
        require(cert is None, "graphs with different underlying neighbour profiles declared equivalent")

# -- color-large ----------------------------------------------------------------


SPARSE_BOUND = Fraction(8, 3)
OUTERPLANAR_G5_BOUND = Fraction(10, 3)  # mad < 2g/(g-2) for outerplanar girth g


class ColorLarge(Workload):
    """CLI colourings of large sparse and outerplanar graphs, and exact mad."""

    name = "color-large"
    # the largest colourings finish in about 1.5 s
    deadline_s = 6.0
    sparse_count, outerplanar_count, mad_count = 13, 6, 7

    def setup(self, pg, seed: int, workdir: Path) -> list[Op]:
        pg.coloring.build_extension_tables()  # built lazily by the first `color sparse`
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for n in log_grid(500, 8000, self.sparse_count):
            g = pg.families.random_sparse(n, corpus_rng(self.name, "sparse", n).randrange(2**32))
            ops.append(self._color(pg, g, "sparse", workdir / f"sparse-{n}.graph"))
        for n in log_grid(250, 4000, self.outerplanar_count):
            g = pg.families.random_outerplanar(n, 5, corpus_rng(self.name, "outerplanar", n).randrange(2**32))
            ops.append(self._color(pg, g, "outerplanar5", workdir / f"outerplanar-{n}.graph"))
        for j, n in enumerate(log_grid(250, 1000, self.mad_count)):
            family_seed = corpus_rng(self.name, "mad", n).randrange(2**32)
            if j % 2:
                g, bound = pg.families.random_outerplanar(n, 5, family_seed), OUTERPLANAR_G5_BOUND
            else:
                g, bound = pg.families.random_sparse(n, family_seed), SPARSE_BOUND
            ops.append(
                Op(
                    f"max_average_degree n={n}",
                    lambda g=g: pg.density.max_average_degree(g),
                    lambda value, g=g, bound=bound: checker.check_max_average_degree(g, value, bound),
                )
            )
        random.Random(seed).shuffle(ops)
        return ops

    @staticmethod
    def _color(pg, g, target: str, path: Path) -> Op:
        path.write_text(checker.emit_graph_text(g.n, g.arcs), encoding="utf-8")
        argv = ["color", target, str(path)]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = pg.cli.main(argv)
            return code, out.getvalue()

        def check(result):
            exit_code, stdout = result
            checker.check_color_output(g, exit_code, stdout, target)

        return Op(f"color {target} n={g.n}", call, check)


WORKLOADS = {w.name: w for w in (ClassifySmall(), EquivMid(), ColorLarge())}
