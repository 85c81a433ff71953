#!/usr/bin/env python3
"""Self-test of the output checks: every corrupted output must be flagged.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Each case takes a CLI output, corrupts it in one way, and requires the
benchmark's checks to reject it.  Whether the uncorrupted outputs are right
is not tested here: that is the benchmark's own job, so a wrong program
shows as failed ops, not as a failed self-test.  ``run.py`` runs the same
cases before it measures anything.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import checks
import workloads


def _output(cli, workload, kind: str):
    """The op of ``kind`` and the bytes the CLI wrote for it, or None if it failed.

    A failing program is not a blind check: the benchmark's warm-up counts
    that failure itself, so the cases built on its output are skipped here.
    """
    op = next(o for o in workload.ops if o.kind == kind)
    try:
        if cli.main(op.argv) == 0:
            return op, op.output.read_bytes()
    except Exception:
        pass
    return op, None


def _shift(*path, by: float):
    """A corruption that adds ``by`` to the number at ``path`` in a JSON document."""

    def corrupt(doc) -> None:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += by

    return corrupt


def problems(cli, runner_cls, workdir: Path) -> list[str]:
    """Descriptions of the corruptions the checks missed; empty when none."""
    workdir.mkdir(parents=True, exist_ok=True)
    rank = workloads.rank_committees(0, workdir)
    analysis = workloads.analysis_session(0, workdir)
    with open(workdir / "committees.csv", newline="") as fh:
        h_values: dict[str, list[int]] = {}
        for row in csv.DictReader(fh):
            h_values.setdefault(row["group_id"], []).append(int(row["h_index"]))
    size = min(len(hs) for hs in h_values.values())

    def far_from_exact(doc) -> None:
        row = doc["rows"][0]
        mean, var = checks.subset_h_moments(h_values[row["group_id"]], size)
        row["relative_h_group"] = mean + 10 * math.sqrt(var / doc["provenance"]["n_samples"])

    def unknown_key(doc) -> None:
        doc["provenance"]["unexpected"] = 1

    cases = [
        ("alphas summing to 1.01", rank, "rank-json", _shift("rows", 0, "alpha", by=0.01)),
        ("relative_h_group 10 SE from the exact mean", rank, "rank-json", far_from_exact),
        ("a key the schema does not allow", rank, "rank-json", unknown_key),
        ("W 1e-4 away from scipy", analysis, "distfit-normality", _shift("groups", 0, "W", by=-1e-4)),
        ("slope 1e-6 away from least squares", analysis, "distfit-slope", _shift("slope", by=1e-6)),
    ]
    outputs = {}
    out = []
    for name, workload, kind, corrupt in cases:
        if kind not in outputs:
            outputs[kind] = _output(cli, workload, kind)
        op, data = outputs[kind]
        try:
            doc = json.loads(data)
        except (TypeError, ValueError):  # no output, or not JSON
            continue
        corrupt(doc)
        if checks.verdict(op.check, json.dumps(doc, indent=2).encode()) is None:
            out.append(f"not flagged: {name}")

    op, data = outputs["rank-json"]
    if data is not None:
        class Replay:
            """A CLI whose second output for the same argv differs from its first."""

            def __init__(self):
                self.outputs = [data, data.replace(b'"rank": 1', b'"rank":  1')]

            def main(self, argv):
                Path(argv[argv.index("--output") + 1]).write_bytes(self.outputs.pop(0))
                return 0

        runner = runner_cls(Replay())
        runner.run(op)
        runner.run(op)
        if not any(f["op"] == 1 and "differs" in f["reason"] for f in runner.failures):
            out.append("not flagged: a second output of the same argv that differs from the first")
    return out


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from alphaindex import cli

    from run import OUT, Runner

    found = problems(cli, Runner, OUT / "selftest")
    for problem in found:
        print(problem)
    print("self-test", "FAILED" if found else "passed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
