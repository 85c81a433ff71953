#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write ``BENCH_<n>.json``.

Run from the root of a source checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --number 18 --seed 81

The change side is this checkout's working tree.  The parent side is
``git archive <parent>`` unpacked into a temporary directory, which is
removed afterwards.  Every workload in ``BENCHMARK.json`` runs in 10 pairs;
pair ``i`` runs ``perfbench/run.py --workload W --seed <seed + i> --seconds S
--trace 0`` once in each tree, the parent first in even pairs and the change
first in odd ones.  The workloads, the run length ``S`` and the end-to-end
metrics with their directions and bounds all come from ``BENCHMARK.json``.

For each workload and metric the record holds every run's value, each
side's median and quartiles, the pairs the change won (ties count for
neither side), and two verdicts.  ``gain`` is true when the change won at
least nine pairs in ten and its median is better by more than the parent's
interquartile range.  ``bound_verdict`` is ``"unresolved"`` when the
parent's interquartile range is wider than the metric's bound (relative to
the parent's median) and the two sides' runs overlap; otherwise it is
``"within"`` when the change's median is worse than the parent's by no more
than the bound, and ``"beyond"`` when it is worse by more.  Per workload,
``change_failed_more`` is true when the change failed a larger share of the
operations it attempted than the parent did; the tool then says so on
stderr.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` ran as pair ``i``."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number of parent and change runs, at least 2")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change is better
    sides = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        sides[side] = {"q1": q1, "median": median, "q3": q3}
    p, c = sides["parent"], sides["change"]
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    apart = max(parent) < min(change) or max(change) < min(parent)
    if p["q3"] - p["q1"] > bound * p["median"] and not apart:
        verdict = "unresolved"
    elif sign * (c["median"] - p["median"]) <= bound * p["median"]:
        verdict = "within"
    else:
        verdict = "beyond"
    return {
        **sides,
        "relative_change": (c["median"] - p["median"]) / p["median"],
        "change_better_in_pairs": f"{wins}/{len(parent)}",
        "gain": 10 * wins >= 9 * len(parent)
        and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"],
        "bound_verdict": verdict,
        "runs": {"parent": list(parent), "change": list(change)},
    }


def failed_more(parent: tuple[int, int], change: tuple[int, int]) -> bool:
    """Whether ``change`` failed a larger share of its operations than ``parent``.

    Each side is ``(failed, attempted)`` over all its runs; a side that
    attempted nothing counts as failing none.
    """
    (p_failed, p_attempted), (c_failed, c_attempted) = parent, change
    return Fraction(c_failed, c_attempted or 1) > Fraction(p_failed, p_attempted or 1)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _unpack(rev: str, dest: Path) -> None:
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its last output line is the result object."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _provenance(parent_rev: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "parent": parent_rev,
        "parent_commit": _git("rev-parse", f"{parent_rev}^{{commit}}"),
        "change_commit": _git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _metric(metric: dict, runs: dict[str, list[dict]]) -> dict:
    """A ``BENCHMARK.json`` end-to-end metric, summarized over the runs of both sides."""
    name = metric["name"]
    parent = [r["metrics"][name]["value"] for r in runs["parent"]]
    change = [r["metrics"][name]["value"] for r in runs["change"]]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        **summarize(parent, change, metric["better"], metric["bound"]),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    args = parser.parse_args(argv)

    record = {
        "method": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
        "--trace 0, one run per tree per pair, the parent first in even pairs; "
        "quartiles are inclusive; written by tools/bench_pairs.py",
        "provenance": _provenance(args.parent),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        _unpack(args.parent, parent_tree)
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {"parent": [], "change": []}
            seeds = [args.seed + i for i in range(PAIRS)]
            for i, seed in enumerate(seeds):
                order = [("parent", parent_tree), ("change", ROOT)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(_run(tree, workload, seed, seconds))
                    print(f"{workload} pair {i + 1}/{PAIRS} {side} done", file=sys.stderr)
            ops = {
                side: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                for side, rs in runs.items()
            }
            shares = {side: f"{f}/{a}" for side, (f, a) in ops.items()}
            more = failed_more(ops["parent"], ops["change"])
            if more:
                print(f"{workload}: the change failed {shares['change']} ops, "
                      f"a larger share than the parent's {shares['parent']}", file=sys.stderr)
            record["workloads"][workload] = {
                "pairs": PAIRS,
                "seeds": seeds,
                "seconds_per_run": seconds,
                "ops_failed_of_attempted": shares,
                "change_failed_more": more,
                "end_to_end": {m["name"]: _metric(m, runs) for m in bench["end_to_end"]},
            }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
