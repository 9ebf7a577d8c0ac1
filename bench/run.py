"""pushgraph benchmark: one seeded workload, closed loop, one caller, one thread.

    python3 bench/run.py --workload classify-small --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

A run sets up its inputs SETUP_REPEATS times (re-importing pushgraph each
time) and reports the median as setup_s, then runs whole passes over the
operations while another pass fits in --seconds, and more if it has not yet
made MIN_OPS operations.  With --trace 1 the passes alternate untraced and
traced; the per-layer figures cover one set-up plus one traced pass (mean
over traced passes), and trace.overhead_pct compares traced passes with the
untraced ones.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checker
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
MIN_OPS = 100  # so that op_p90_ms has at least ten samples beyond it

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class OperationDeadline(BaseException):
    """Raised from SIGALRM inside a runaway program call; not an Exception so
    that no handler in the program can swallow it."""


def _alarm(signum, frame):
    raise OperationDeadline


def run_op(op: workloads.Op, deadline_s: float):
    """Time one program call under the deadline, then check its answer.

    Returns (elapsed seconds, failure reason or None, output, message).
    SIGALRM must be routed to _alarm by the caller.
    """
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            out = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OperationDeadline:
        return time.perf_counter() - start, "deadline", None, f"over {deadline_s} s"
    except RecursionError as exc:
        return time.perf_counter() - start, "RecursionError", None, str(exc)
    except Exception as exc:
        return time.perf_counter() - start, "exception", None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        op.check(out)
    except Exception as exc:  # a malformed answer is as unverifiable as a wrong one
        return elapsed, "wrong-answer", None, f"{type(exc).__name__}: {exc}"
    return elapsed, None, out, ""


def import_program():
    """Import pushgraph afresh from this checkout's src directory."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "pushgraph" or n.startswith("pushgraph.")]:
        del sys.modules[name]
    pg = workloads.load_program()
    if src not in Path(pg.graph.__file__).resolve().parents:
        raise ImportError(f"pushgraph was imported from {pg.graph.__file__}, outside {src}")
    return pg


class Run:
    def __init__(self, workload, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracing.Tracer() if traced else None
        self.workdir = WORK / f"{workload.name}-{os.getpid()}"
        self.setup_times: list[float] = []
        self.passes: list[dict] = []
        self.failures: list[tuple[str, str, str]] = []
        self.run_errors: list[str] = []

    def setup(self) -> list[workloads.Op]:
        repeats = 1 if self.tracer else SETUP_REPEATS
        for _ in range(repeats):
            start = time.perf_counter()
            pg = import_program()
            if self.tracer:
                self.tracer.install()
            try:
                ops = self.workload.setup(pg, self.seed, self.workdir)
            finally:
                if self.tracer:
                    self.tracer.uninstall()
            self.setup_times.append(time.perf_counter() - start)
        return ops

    def measure(self, ops: list[workloads.Op]) -> None:
        previous = signal.signal(signal.SIGALRM, _alarm)
        try:
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                self.passes.append(self._one_pass(ops))
                last = time.perf_counter() - pass_start
                if self.tracer:
                    if len(self.passes) % 2:
                        continue
                    last *= 2
                made = sum(len(p["records"]) for p in self.passes if not p["traced"])
                if time.perf_counter() - start + last > self.seconds and (self.tracer or made >= MIN_OPS):
                    break
        finally:
            signal.signal(signal.SIGALRM, previous)

    def _one_pass(self, ops) -> dict:
        index = len(self.passes)
        traced = self.tracer is not None and index % 2 == 1
        counts_before = dict(self.tracer.counts) if traced else {}
        if traced:
            self.tracer.install()
        records, outputs = [], []
        try:
            for i, op in enumerate(ops):
                if traced:
                    self.tracer.op = f"{index}:{i}"
                elapsed, reason, out, message = run_op(op, self.workload.deadline_s)
                records.append([elapsed, reason])
                outputs.append(out)
                if reason:
                    self.failures.append((op.label, reason, message))
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            wrong = self.workload.check_pass(ops, outputs)
        except checker.CheckFailed as exc:
            self.run_errors.append(f"pass {index}: {exc}")
            wrong = {}
        for i, message in wrong.items():
            records[i][1] = "wrong-answer"
            self.failures.append((ops[i].label, "wrong-answer", message))
        counts = {k: self.tracer.counts[k] - counts_before[k] for k in counts_before}
        return {"traced": traced, "records": records, "counts": counts}

    @property
    def correct(self) -> bool:
        return not self.run_errors and all(reason != "wrong-answer" for _, reason, _ in self.failures)

    def records(self, traced: bool) -> list:
        return [r for p in self.passes if p["traced"] == traced for r in p["records"]]

    def end_to_end(self) -> dict[str, float]:
        records = self.records(False)
        deadline = self.workload.deadline_s
        latencies = [deadline if reason else elapsed for elapsed, reason in records]
        busy = sum(elapsed for elapsed, _ in records)
        ok = sum(reason is None for _, reason in records)
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
        return {
            "ops_per_s": ok / busy,
            "op_p50_ms": cuts[4] * 1000,
            "op_p90_ms": cuts[8] * 1000,
            "failed_ratio": (len(records) - ok) / len(records),
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        traced = [i for i, p in enumerate(self.passes) if p["traced"]]
        spans = self.tracer.spans
        setup = tracing.layer_totals(spans, lambda op: op == "setup")
        by_pass = [tracing.layer_totals(spans, lambda op, i=i: op.startswith(f"{i}:")) for i in traced]
        metrics = {}
        for name in tracing.LAYER_NAMES:
            calls = setup[name][0] + statistics.mean(t[name][0] for t in by_pass)
            own = setup[name][1] + statistics.mean(t[name][1] for t in by_pass)
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (own, "s")
        for name in tracing.COUNTS:
            metrics[name] = (statistics.mean(self.passes[i]["counts"][name] for i in traced), "count")
        busy_traced = sum(e for e, _ in self.records(True))
        busy_plain = sum(e for e, _ in self.records(False))
        metrics["trace.overhead_pct"] = (100 * (busy_traced / busy_plain - 1), "%")
        return metrics


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": f"{platform.node()} {platform.machine()} {platform.platform()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "commit": commit_id(),
    }


def commit_id() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    try:
        ops = run.setup()
        run.measure(ops)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    plain, traced = run.records(False), run.records(True)
    print(f"workload {workload.name}: {len(ops)} operations per pass, {len(run.passes)} passes, "
          f"deadline {workload.deadline_s} s, closed loop, one caller")
    reasons = Counter(reason for _, reason in (traced if run.tracer else plain) if reason)
    print("failures by reason:", json.dumps(dict(sorted(reasons.items()))))
    for (label, reason, message), times in sorted(Counter(run.failures).items()):
        print(f"  failed {times}x: {label}: {reason}: {message}")
    for message in run.run_errors:
        print(f"  WRONG: {message}", file=sys.stderr)
    print("environment:", json.dumps(environment(args.seed)))

    if run.tracer:
        metrics = run.per_layer()
        spans_path = WORK / f"{workload.name}.spans.jsonl"
        run.tracer.write(spans_path)
        print(f"{len(run.tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        attempted, failed = len(traced), sum(r is not None for _, r in traced)
    else:
        values = run.end_to_end()
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        print(f"samples: {len(plain)} operations, {len(run.setup_times)} set-ups")
        attempted, failed = len(plain), sum(r is not None for _, r in plain)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    if not run.correct:
        print("WRONG ANSWERS: see the failures above", file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode or not lines:
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": status == 0 and all(r["correct"] for r in results.values()),
                      "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except ImportError as exc:
        print(f"cannot import pushgraph from this checkout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
