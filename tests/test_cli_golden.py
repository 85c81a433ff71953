"""Golden outputs: every CLI command, analysis and format, byte for byte.

Each argv below runs in-process on small fixed inputs written to a temporary
directory, so the paths in messages are the relative file names.  The exit
code, stdout and stderr of each run must equal ``golden/cli.json``.  After
an intended output change, re-record the file and review its diff::

    PYTHONPATH=src python tests/test_cli_golden.py

Re-recording over an existing file prints the keys it removed, added and
changed to stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from alphaindex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
FORMATS = ("table", "csv", "json")


def _summary_csv(rows) -> str:
    lines = ["group_id,researcher_id,h_index,total_citations"]
    lines += [f"{g},{r},{h},{'' if t is None else t}" for g, r, h, t in rows]
    return "\n".join(lines) + "\n"


def _dataset_json(groups: dict[str, list[tuple[int, int | None]]]) -> str:
    doc = {
        "groups": [
            {
                "id": gid,
                "members": [
                    {"id": f"{gid}-{i}", "h_index": h}
                    | ({} if t is None else {"total_citations": t})
                    for i, (h, t) in enumerate(members, start=1)
                ],
            }
            for gid, members in groups.items()
        ]
    }
    return json.dumps(doc)


def _with_totals(hs, scale: int) -> list[tuple[int, int]]:
    return [(h, h * h * scale + 7 * i) for i, h in enumerate(hs)]


INPUTS = {
    "groups.json": _dataset_json(
        {
            "pc-a": _with_totals([3, 5, 8, 12, 6, 9, 14, 4, 7, 10, 5, 11, 2, 8, 6], 3),
            "pc-b": _with_totals([9, 4, 15, 7, 11, 6, 13, 8, 10, 5, 12, 9], 4),
            "board": _with_totals(
                [2, 6, 3, 9, 5, 7, 4, 8, 6, 10, 3, 5, 7, 4, 6, 9, 5, 8, 7, 6], 2
            ),
        }
    ),
    "summary.csv": _summary_csv(
        [("g1", f"r{i}", h, t) for i, (h, t) in enumerate(
            [(12, 500), (8, 200), (5, 80), (0, 0), (6, 90), (9, 260), (4, 41), (7, 120)]
        )]
        + [("g2", f"s{i}", h, t) for i, (h, t) in enumerate(
            [(3, 40), (7, 100), (2, 9), (4, 55), (1, 2), (10, 330), (6, 61), (5, 70)]
        )]
    ),
    "long.csv": "group_id,researcher_id,paper_id,citations\n"
    + "".join(
        f"{g},{r},p{p},{c}\n"
        for g, r, cites in [
            ("lab-x", "ann", [10, 4, 3, 0]),
            ("lab-x", "bob", [25, 9, 7, 6, 1]),
            ("lab-x", "cy", [2, 2, 1]),
            ("lab-y", "dee", [40, 31, 12, 8, 8, 3]),
            ("lab-y", "eve", [5, 1]),
            ("lab-y", "fay", [14, 11, 9, 2]),
        ]
        for p, c in enumerate(cites)
    ),
    "huge.json": _dataset_json(
        {
            "big": [(10**23, 10**24), (4, 30), (7, 90), (2, 5)],
            "small": [(3, 20), (5, 44), (6, 70)],
        }
    ),
    "flat.json": _dataset_json(
        {"equal": [(6, 80)] * 5, "mixed": [(2, 9), (9, 200), (4, 30), (7, 99), (5, 60)]}
    ),
    "degenerate.json": _dataset_json(
        {"zeros": [(0, 0), (0, 3), (0, 1)], "ok": [(1, 4), (2, 8), (3, 15)]}
    ),
    "warnings.csv": _summary_csv(
        [("w", f"m{i}", i % 5 + 1, None if i < 7 else 10 + i * i) for i in range(10)]
    ),
    "invalid.json": json.dumps(
        {"groups": [{"id": "g", "members": [
            {"id": "r", "h_index": 3, "total_citations": 19, "paper_citations": [10, 8, 1]}
        ]}]}
    ),
    "empty.json": '{"groups": []}',
}


def _argvs() -> list[list[str]]:
    runs: list[list[str]] = []
    data = ("groups.json", "summary.csv", "long.csv", "huge.json")
    for fmt in FORMATS:
        f = ["--format", fmt]
        for path in data:
            runs += [
                ["metrics", path, *f],
                ["rank", path, "--seed", "3", "--samples", "200", *f],
                ["lorenz", path, *f],
                ["psi", path, *f],
                ["validate", path, *f],
            ]
            for analysis in ("beta", "giddings", "normality", "moments"):
                runs.append(["distfit", path, "--analysis", analysis, *f])
            if path != "huge.json":  # slope at h = 10**23: test_extreme_counts_exit_cleanly
                runs.append(["distfit", path, "--analysis", "slope", *f])
        runs += [
            ["rank", "flat.json", *f],
            ["rank", "flat.json", "--quiet", *f],
            ["distfit", "groups.json", "--analysis", "moments",
             "--beta-grid", "0.3,0.5", "--k-grid", "1:2:0.5", *f],
            ["distfit", "groups.json", "--analysis", "giddings", "--bin-width", "2", *f],
            ["synth", "--beta", "0.5", "--n", "8", "--seed", "3", *f],
            ["synth", "--beta", "0.7", "--n", "6", "--x0", "10", "--seed", "1", *f],
            ["synth", "--beta", "0.5", "--n", "8", "--seed", "3", "--round", *f],
            ["synth", "--beta", "0.4", "--n", "5", "--round", "--group-id", "boards", *f],
        ]
        for path in ("degenerate.json", "warnings.csv", "invalid.json", "empty.json"):
            runs += [
                ["metrics", path, *f],
                ["rank", path, *f],
                ["lorenz", path, *f],
                ["psi", path, *f],
                ["validate", path, *f],
            ]
        runs += [
            ["metrics", "warnings.csv", "--quiet", *f],
            ["validate", "warnings.csv", "--quiet", *f],
            ["distfit", "warnings.csv", "--analysis", "slope", *f],
            ["distfit", "warnings.csv", "--analysis", "beta", *f],
            ["distfit", "warnings.csv", "--analysis", "moments", "--quiet", *f],
            ["distfit", "warnings.csv", "--analysis", "normality", *f],
            ["distfit", "degenerate.json", "--analysis", "normality", *f],
            ["distfit", "summary.csv", "--analysis", "slope", "--quiet", *f],
        ]
    runs += [
        ["metrics", "missing.json"],
        ["rank", "groups.json", "--samples", "0"],
        ["rank", "groups.json", "--seed", "-1"],
        ["distfit", "groups.json", "--analysis", "slope", "--k-grid", "1,2"],
        ["distfit", "groups.json", "--analysis", "beta", "--beta-grid", "0.1:inf:0.1"],
        ["distfit", "groups.json", "--analysis", "moments", "--k-grid", "1,x"],
        ["distfit", "groups.json", "--analysis", "moments", "--k-grid", "1:2"],
        ["synth", "--beta", "0", "--n", "5"],
        ["synth", "--beta", "1", "--n", "0"],
        ["synth", "--beta", "1", "--x0", "-2", "--n", "5"],
        ["synth", "--beta", "1", "--n", "5", "--seed", "-4"],
    ]
    return runs


def _run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def run_all(workdir: Path) -> dict[str, list]:
    """Write the inputs into ``workdir`` and run every argv from there."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        return {" ".join(argv): _run(argv) for argv in _argvs()}
    finally:
        os.chdir(previous)


def moved_keys(old: dict[str, list], new: dict[str, list]) -> dict[str, list[str]]:
    """The keys a re-recording removed, added and changed, each in file order."""
    return {
        "removed": [key for key in old if key not in new],
        "added": [key for key in new if key not in old],
        "changed": [key for key in new if key in old and old[key] != new[key]],
    }


def test_cli_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_all(tmp_path)
    assert list(actual) == list(golden)
    for key, expected in golden.items():
        assert actual[key] == expected, key


def test_moved_keys():
    old = {"a": [0, "x", ""], "b": [0, "y", ""], "c": [1, "", "e"]}
    new = {"a": [0, "x", ""], "c": [1, "", "f"], "d": [0, "z", ""]}
    assert moved_keys(old, new) == {"removed": ["b"], "added": ["d"], "changed": ["c"]}
    assert moved_keys(new, new) == {"removed": [], "added": [], "changed": []}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(Path(tmp))
    if GOLDEN.exists():
        previous = json.loads(GOLDEN.read_text(encoding="utf-8"))
        for label, keys in moved_keys(previous, results).items():
            print(f"{len(keys)} {label}", file=sys.stderr)
            for key in keys:
                print(f"  {key}", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} runs to {GOLDEN}", file=sys.stderr)
