"""Seeded input generators and fixed op cycles for the three workloads.

Every workload fixes the multiset of sizes that set its cost (group sizes,
papers per member) and lets the seed shuffle them and draw the values, so
the seed changes the data but not the amount of work an op does.

Each op is one ``alphaindex.cli.main`` argv.  A run repeats the workload's
cycle whole, so the mix of commands is the same in every run.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


@dataclass
class Op:
    """One command of a cycle: its argv, where it writes, and how to check it."""

    kind: str
    argv: list[str]
    output: Path
    check: Callable[[bytes], None]  # raises checks.CheckFailed


@dataclass
class Workload:
    ops: list[Op]
    sizes: dict  # input sizes, recorded as provenance


def _h_index(citations) -> int:
    ranked = np.sort(np.asarray(citations))[::-1]
    return int(np.sum(ranked >= np.arange(1, ranked.size + 1)))


def _total_citations(rng, hs: np.ndarray) -> np.ndarray:
    """h^2 * lognormal(1.3, 0.5) + h, so total >= h always holds."""
    return np.rint(hs.astype(float) ** 2 * rng.lognormal(1.3, 0.5, size=hs.size)).astype(np.int64) + hs


def _write_summary_csv(path: Path, groups: dict[str, list[tuple[int, int]]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id", "researcher_id", "h_index", "total_citations"])
        for gid, members in groups.items():
            for i, (h, total) in enumerate(members, start=1):
                writer.writerow([gid, f"{gid}-r{i:03d}", h, total])


# ---------------------------------------------------------------------------
# rank-committees: the paper's headline computation at committee scale

RANK_SIZES = (20, 32, 44, 56, 68, 80)


def rank_committees(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(RANK_SIZES)
    groups = {}
    for gi, n in enumerate(sizes, start=1):
        hs = np.rint(rng.gamma(3.0, 7.0, size=int(n))).astype(np.int64)
        totals = _total_citations(rng, hs)
        groups[f"committee-{gi:02d}"] = list(zip(hs.tolist(), totals.tolist()))
    data = workdir / "committees.csv"
    _write_summary_csv(data, groups)

    h_values = {gid: [h for h, _ in ms] for gid, ms in groups.items()}
    ops = []
    for fmt in ("table", "csv", "json"):
        out = workdir / f"rank.{fmt}"
        argv = ["rank", str(data), "--seed", str(seed), "--format", fmt, "--output", str(out)]
        ops.append(Op(f"rank-{fmt}", argv, out, checks.rank_checker(fmt, h_values, 1000)))
    return Workload(
        ops,
        {"rows": int(sum(sizes)), "groups": len(groups), "members": int(sum(sizes)),
         "reference_size": int(min(sizes)), "samples": 1000},
    )


# ---------------------------------------------------------------------------
# survey-longform: ingest of a large per-paper table, and per-member output

SURVEY_GROUPS = 30
SURVEY_MEMBERS = 40
SURVEY_PAPERS = (5, 120)


def survey_longform(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    n_members = SURVEY_GROUPS * SURVEY_MEMBERS
    lo, hi = SURVEY_PAPERS
    paper_counts = rng.permutation(np.rint(np.linspace(lo, hi, n_members)).astype(int))
    citations = rng.zipf(1.8, size=int(paper_counts.sum())).astype(np.int64)

    data = workdir / "survey.csv"
    doc_groups = []
    h_values = {}
    pos = 0
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id", "researcher_id", "paper_id", "citations"])
        for g in range(SURVEY_GROUPS):
            gid = f"s{g + 1:02d}"
            members = []
            for m in range(SURVEY_MEMBERS):
                rid = f"m{m + 1:02d}"
                k = int(paper_counts[g * SURVEY_MEMBERS + m])
                cites = citations[pos : pos + k].tolist()
                pos += k
                writer.writerows([gid, rid, f"p{j + 1:03d}", c] for j, c in enumerate(cites))
                members.append(
                    {"id": rid, "h_index": _h_index(cites), "total_citations": sum(cites),
                     "paper_citations": cites}
                )
            doc_groups.append({"id": gid, "label": gid, "members": members})
            h_values[gid] = [mem["h_index"] for mem in members]
    doc = workdir / "survey.json"
    doc.write_text(json.dumps({"groups": doc_groups}), encoding="utf-8")

    def op(kind, argv, suffix, check):
        out = workdir / f"{kind}.{suffix}"
        return Op(kind, [*argv, "--output", str(out)], out, check)

    ops = [
        op("validate-json", ["validate", str(doc), "--format", "json"], "json",
           checks.validate_checker(len(doc_groups), n_members)),
        op("metrics-csv", ["metrics", str(data), "--format", "csv"], "csv",
           checks.metrics_checker(h_values)),
        op("lorenz-table", ["lorenz", str(data)], "dat", checks.lorenz_checker(h_values)),
        op("psi-json", ["psi", str(data), "--format", "json"], "json", checks.psi_checker(h_values)),
    ]
    return Workload(
        ops,
        {"rows": int(paper_counts.sum()), "groups": SURVEY_GROUPS, "members": n_members,
         "csv_bytes": data.stat().st_size, "json_bytes": doc.stat().st_size},
    )


# ---------------------------------------------------------------------------
# analysis-session: the supporting fits on one pooled summary-form dataset

ANALYSIS_GROUPS = 20
ANALYSIS_SIZES = (100, 400)
GIDDINGS_BIN_WIDTH = 10
H_RANGE = (1, 75)


def _truncated_gamma_h(rng, n: int) -> np.ndarray:
    """Rounded Gamma(3, 7) draws, redrawn until they fall in ``H_RANGE``.

    The cut removes about 0.3% of the mass.  It pins the pooled minimum at 1
    and the maximum at 71..75 on every seed, so the Giddings histogram always
    has 8 bins of width 10 and the fit's cost does not jump with the seed.
    """
    lo, hi = H_RANGE
    hs = np.rint(rng.gamma(3.0, 7.0, size=n)).astype(np.int64)
    while (bad := (hs < lo) | (hs > hi)).any():
        hs[bad] = np.rint(rng.gamma(3.0, 7.0, size=int(bad.sum())))
    return hs


def analysis_session(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    lo, hi = ANALYSIS_SIZES
    sizes = rng.permutation(np.rint(np.linspace(lo, hi, ANALYSIS_GROUPS)).astype(int))
    groups = {}
    for gi, n in enumerate(sizes, start=1):
        hs = _truncated_gamma_h(rng, int(n))
        groups[f"board-{gi:02d}"] = list(zip(hs.tolist(), _total_citations(rng, hs).tolist()))
    data = workdir / "pooled.csv"
    _write_summary_csv(data, groups)

    pairs = [pair for ms in groups.values() for pair in ms]
    h_values = {gid: [h for h, _ in ms] for gid, ms in groups.items()}
    all_h = [h for h, _ in pairs]
    bins = int((max(all_h) - min(all_h)) / GIDDINGS_BIN_WIDTH) + 1
    analyses = {
        "slope": checks.slope_checker(pairs),
        "beta": checks.schema_checker("distfit_beta"),
        "moments": checks.schema_checker("distfit_moments"),
        "normality": checks.normality_checker(h_values),
        "giddings": checks.giddings_checker(bins),
    }
    ops = []
    for analysis, check in analyses.items():
        out = workdir / f"distfit-{analysis}.json"
        argv = ["distfit", str(data), "--analysis", analysis, "--bin-width",
                str(GIDDINGS_BIN_WIDTH), "--format", "json", "--output", str(out)]
        ops.append(Op(f"distfit-{analysis}", argv, out, check))
    return Workload(
        ops,
        {"rows": len(pairs), "groups": len(groups), "members": len(pairs), "giddings_bins": bins},
    )


WORKLOADS = {
    "rank-committees": rank_committees,
    "survey-longform": survey_longform,
    "analysis-session": analysis_session,
}

