"""Reference long-form reader: one global set of (group, researcher, paper).

The row loop of :func:`alphaindex.ingest.read_long_form` before it looked a
member up once per run of rows: every row builds and checks a 3-tuple in one
file-wide set and appends through ``dict.setdefault``.  It shares the
header, count and report helpers with the package, so the tests that compare
the two readers check only the row loop.  The package does not use it.
"""

import csv
from pathlib import Path

from alphaindex import ingest
from alphaindex.metrics import h_index
from alphaindex.model import MAX_COUNT, ResearcherProfile


def read_long_form(source) -> ingest.IngestReport:
    """What :func:`alphaindex.ingest.read_long_form` must return for ``source``."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return read_long_form(fh)
    errors: list[str] = []
    papers: dict[tuple[str, str], list[int]] = {}
    seen_papers: set[tuple[str, str, str]] = set()
    groups: dict[str, list[ResearcherProfile]] = {}

    rows, columns = ingest._read_header(source, ingest.LONG_FORM_HEADER, errors)
    if columns is None:
        return ingest._report(errors, groups)

    g_col, r_col, p_col, c_col = columns
    lineno = 1
    try:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(ingest.LONG_FORM_HEADER):
                errors.append(
                    f"row {lineno}: expected {len(ingest.LONG_FORM_HEADER)} fields, got {len(row)}"
                )
                continue
            gid = row[g_col].strip()
            rid = row[r_col].strip()
            pid = row[p_col].strip()
            raw = row[c_col].strip()
            if not gid or not rid or not pid:
                errors.append(f"row {lineno}: blank group_id, researcher_id, or paper_id")
                continue
            cites = ingest._parse_count(raw, "citations", lineno, errors)
            if cites is None:
                continue
            if (gid, rid, pid) in seen_papers:
                errors.append(f"row {lineno}: duplicate paper {pid!r} for {rid!r} in {gid!r}")
                continue
            seen_papers.add((gid, rid, pid))
            papers.setdefault((gid, rid), []).append(cites)
    except csv.Error as exc:
        lineno += 1
        errors.append(f"row {lineno}: {exc}")

    if lineno == 1:
        errors.append("no data rows")
    if errors:
        return ingest._report(errors, groups)

    for (gid, rid), cites in papers.items():
        total = sum(cites)
        if total > MAX_COUNT:
            errors.append(f"{rid!r} in {gid!r}: total citations exceed the ceiling 10**50")
            continue
        groups.setdefault(gid, []).append(
            ResearcherProfile(
                id=rid,
                h_index=h_index(cites),
                total_citations=total,
                paper_citations=tuple(cites),
            )
        )
    return ingest._report(errors, groups)
