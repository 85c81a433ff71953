"""Reference tabular readers: one file-wide set of tuples, one ``setdefault`` per row.

These are the row loops of :func:`alphaindex.ingest.read_long_form` and
:func:`alphaindex.ingest.read_summary_form` before they looked a member or a
group up once per run of rows: every row builds and checks a tuple in one
file-wide set and appends through ``dict.setdefault``.  They share the
header, count and report helpers with the package, so the tests that compare
the readers check only the row loops.  Neither knows of control characters
in ids, so the comparisons feed them none.  The package does not use them.
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

    lines = iter(source)
    rows, columns = ingest._read_header(lines, next(lines, ""), ingest.LONG_FORM_HEADER, errors)
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
            try:
                cites = ingest._parse_count(raw, "citations")
            except ValueError as exc:
                errors.append(f"row {lineno}: {exc}")
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


def read_summary_form(source) -> ingest.IngestReport:
    """What :func:`alphaindex.ingest.read_summary_form` must return for ``source``."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return read_summary_form(fh)
    errors: list[str] = []
    warnings: list[str] = []
    members: dict[str, list[ResearcherProfile]] = {}
    seen: set[tuple[str, str]] = set()

    lines = iter(source)
    rows, columns = ingest._read_header(lines, next(lines, ""), ingest.SUMMARY_FORM_HEADER, errors)
    if columns is None:
        return ingest._report(errors, members, warnings)

    g_col, r_col, h_col, t_col = columns
    lineno = 1
    try:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(ingest.SUMMARY_FORM_HEADER):
                errors.append(
                    f"row {lineno}: expected {len(ingest.SUMMARY_FORM_HEADER)} fields, got {len(row)}"
                )
                continue
            gid = row[g_col].strip()
            rid = row[r_col].strip()
            h_raw = row[h_col].strip()
            total_raw = row[t_col].strip()
            if not gid or not rid:
                errors.append(f"row {lineno}: blank group_id or researcher_id")
                continue
            try:
                h = ingest._parse_count(h_raw, "h_index")
            except ValueError as exc:
                errors.append(f"row {lineno}: {exc}")
                continue
            total = None
            if total_raw:
                try:
                    total = ingest._parse_count(total_raw, "total_citations")
                except ValueError as exc:
                    errors.append(f"row {lineno}: {exc}")
                    continue
                if h > total:
                    errors.append(f"row {lineno}: h_index {h} exceeds total_citations {total}")
                    continue
            else:
                warnings.append(
                    f"row {lineno}: {rid!r} has no total_citations; "
                    "citation-distribution analyses will exclude this member"
                )
            if (gid, rid) in seen:
                errors.append(f"row {lineno}: duplicate researcher {rid!r} in group {gid!r}")
                continue
            seen.add((gid, rid))
            members.setdefault(gid, []).append(
                ResearcherProfile(id=rid, h_index=h, total_citations=total)
            )
    except csv.Error as exc:
        lineno += 1
        errors.append(f"row {lineno}: {exc}")
    except UnicodeDecodeError as exc:
        errors.append(ingest._not_utf8(exc))

    if lineno == 1 and not errors:
        errors.append("no data rows")
    return ingest._report(errors, members, warnings)
