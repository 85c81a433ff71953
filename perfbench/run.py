#!/usr/bin/env python3
"""End-to-end benchmark of the alphaindex CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rank-committees --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each ``alphaindex.cli.main(argv)``
call starts when the previous one ends, and every command writes to
``--output``.  A run repeats its workload's op cycle whole until
``--seconds`` have passed and at least ``MIN_OPS`` untraced commands have
run.  Every output is checked; a nonzero exit, an exception or a failed
check counts as a failed op.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics, with the
tracing overhead taken as the traced minus the untraced time per command.
The last line of standard output is one JSON object; the full record of
the run (provenance, sample counts, output digests, spans) is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import selftest
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_OPS = 100
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "cmds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import ``alphaindex.cli``.

    One untimed import first writes the bytecode caches, which every later
    invocation finds in place.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import alphaindex.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            _fail(f"importing alphaindex.cli failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return times


def provenance(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    from alphaindex import __version__, _kernels

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
    return {
        "seed": seed,
        "git_commit": commit,
        "alphaindex": __version__,
        "backend": _kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "inputs": sizes,
    }


class Runner:
    """Runs ops, times them, checks their outputs and keeps the failures."""

    def __init__(self, cli):
        self.cli = cli
        self.digests: dict[str, str] = {}  # op kind -> digest of its first output
        self.passed: set[str] = set()  # digests whose output passed the full checks
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, op, tracer=None) -> tuple[int, int]:
        """One command; returns (wall ns, output bytes)."""
        with contextlib.suppress(FileNotFoundError):
            op.output.unlink()
        err = io.StringIO()
        problem = None
        with contextlib.redirect_stderr(err):
            if tracer:
                tracer.begin_op(self.attempted)
            start = time.perf_counter_ns()
            try:
                code = self.cli.main(op.argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed run
                code, problem = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - start
            if tracer:
                tracer.end_op()
        self.attempted += 1
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()[:300]}"
        size = 0
        if problem is None:
            try:
                data = op.output.read_bytes()
            except OSError as exc:
                problem = f"no output: {exc}"
            else:
                size = len(data)
                problem = self.check(op, data)
        if problem:
            self.failures.append({"op": self.attempted - 1, "kind": op.kind, "reason": problem})
        return elapsed, size

    def check(self, op, data: bytes) -> str | None:
        """Full checks on the first output of an argv; later ones must match it byte for byte."""
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(op.kind, digest)
        if digest != first:
            problem = "output differs from the first run of the same argv"
        elif digest in self.passed:
            return None
        else:
            problem = None
        wrong = checks.verdict(op.check, data)
        if wrong:
            return f"{problem}; {wrong}" if problem else wrong
        if problem is None:
            self.passed.add(digest)
        return problem


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name not in workloads.WORKLOADS:
        _fail(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    setup_times = [] if trace else measure_setup()

    workdir = OUT / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)

    from alphaindex import cli

    found = selftest.problems(cli, Runner, OUT / "selftest")
    if found:
        _fail("the output checks failed their self-test: " + "; ".join(found))
    runner = Runner(cli)
    for op in workload.ops:  # warm-up: first outputs are checked in full, not timed
        runner.run(op)

    tracer = Tracer()
    times: list[int] = []  # untraced ops
    traced_times: list[int] = []
    out_bytes = 0
    kinds: dict[str, int] = {}
    cycles = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < MIN_OPS:
        traced = trace and cycles % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in workload.ops:
                elapsed, size = runner.run(op, tracer if traced else None)
                if traced:
                    traced_times.append(elapsed)
                    out_bytes += size
                    kinds[op.kind] = kinds.get(op.kind, 0) + 1
                else:
                    times.append(elapsed)
        finally:
            tracer.restore()
        cycles += 1
    run_s = time.perf_counter() - start

    ms = [t / 1e6 for t in times]
    record = {
        "workload": name,
        "trace": int(trace),
        "provenance": provenance(seed, workload.sizes),
        "seconds": seconds,
        "cycles": cycles,
        "ops_per_cycle": [op.kind for op in workload.ops],
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "output_digests": runner.digests,
        "untraced": {
            "n": len(ms),
            "cmd_p50_ms": statistics.median(ms),
            "cmd_p90_ms": _quantile(ms, 90),
            "per_kind_p50_ms": {
                op.kind: statistics.median(ms[i :: len(workload.ops)]) for i, op in enumerate(workload.ops)
            },
            "samples_ms": [round(t, 3) for t in ms],
        },
    }
    if trace:
        record["per_layer"] = layer_metrics(tracer, traced_times, times, out_bytes, kinds)
        record["kernels_share_of_cmd"] = tracer.layers["_kernels"].ns / tracer.op_ns
        record["spans"] = [
            [s.op, s.index, s.parent, s.func, s.start, s.end] for s in tracer.spans
        ]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["per_layer"].items()}
    else:
        values = {
            "cmd_p50_ms": statistics.median(ms),
            "cmd_p90_ms": _quantile(ms, 90),
            "cmds_per_s": len(times) / run_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["setup_s_samples"] = setup_times
        record["end_to_end"] = values
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(f"{name} seed {seed}: {len(times)} untraced and {len(traced_times)} traced commands timed, "
          f"{runner.attempted} attempted, {len(runner.failures)} failed")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def layer_metrics(tracer, traced: list[int], untraced: list[int], out_bytes: int, kinds: dict) -> dict:
    """Per-layer metrics: per traced command unless the name says otherwise."""
    n = max(tracer.ops, 1)
    layers = tracer.layers
    fn = tracer.func_ns
    draws = tracer.counts["_kernels.draws"]
    rows = tracer.counts["ingest.rows"]

    def per_op_ms(ns: int) -> float:
        return ns / n / 1e6

    def per_kind_ms(kind: str, *funcs: str) -> float:
        count = kinds.get(kind, 0)
        return sum(fn[f] for f in funcs) / count / 1e6 if count else 0.0

    mean_traced = statistics.fmean(traced)
    mean_untraced = statistics.fmean(untraced)
    return {
        "kernels.busy_ms": (per_op_ms(layers["_kernels"].ns), "ms"),
        "kernels.calls": (layers["_kernels"].calls / n, "count"),
        "kernels.draws": (draws / n, "count"),
        "kernels.ns_per_draw": (layers["_kernels"].ns / draws if draws else 0.0, "ns"),
        "ranking.self_ms": (per_op_ms(layers["ranking"].self_ns), "ms"),
        "ingest.busy_ms": (per_op_ms(layers["ingest"].ns), "ms"),
        "ingest.rows": (rows / n, "count"),
        "ingest.rows_per_s": (rows / (layers["ingest"].ns / 1e9) if rows else 0.0, "1/s"),
        "model.validate_ms": (per_op_ms(layers["model"].ns), "ms"),
        "metrics.busy_ms": (per_op_ms(layers["metrics"].ns), "ms"),
        "metrics.calls": (layers["metrics"].calls / n, "count"),
        "cli.self_ms": (per_op_ms(layers["cli"].self_ns), "ms"),
        "cli.output_bytes": (out_bytes / n, "B"),
        "distribution.giddings_ms": (per_kind_ms("distfit-giddings", "distribution.fit_giddings"), "ms"),
        "distribution.histogram_ms": (per_kind_ms("distfit-giddings", "distribution.build_histogram"), "ms"),
        "distribution.beta_ms": (per_kind_ms("distfit-beta", "distribution.fit_beta"), "ms"),
        "distribution.moments_ms": (
            per_kind_ms("distfit-moments", "distribution.empirical_moment_ratio",
                        "distribution.theoretical_moment_ratio"),
            "ms",
        ),
        "distribution.normality_ms": (per_kind_ms("distfit-normality", "distribution.shapiro_wilk"), "ms"),
        "distribution.slope_ms": (per_kind_ms("distfit-slope", "distribution.power_law_slope"), "ms"),
        "special.calls": (layers["special"].calls / n, "count"),
        "special.busy_ms": (per_op_ms(layers["special"].ns), "ms"),
        "trace.overhead_pct": (100.0 * (mean_traced - mean_untraced) / mean_untraced, "%"),
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name} (seed {seed}, {result['attempted']} ops, correct={result['correct']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'error_rate':28s} {result['failed'] / result['attempted']:14.6g} failed/attempted")
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alphaindex" / "cli.py").is_file():
        _fail(f"no alphaindex sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, m in result["metrics"].items():
        print(f"{metric:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
