"""File parsing, validation, and serialization of datasets.

Two tabular schemas are first-class because public bibliometric data comes
both ways: *long form* with one row per paper (h-indexes are then computed
here) and *summary form* with one row per researcher.  A JSON document
format round-trips datasets losslessly.  Parsers never raise on bad content;
every problem is collected into the returned :class:`IngestReport` with its
row number or document path.  A count above :data:`model.MAX_COUNT` is such a
problem.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import h_index
from .model import MAX_COUNT, Dataset, Group, ResearcherProfile, validate

LONG_FORM_HEADER = ("group_id", "researcher_id", "paper_id", "citations")
SUMMARY_FORM_HEADER = ("group_id", "researcher_id", "h_index", "total_citations")


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one ingest: a dataset iff no errors, plus diagnostics."""

    dataset: Dataset | None
    warnings: tuple[str, ...] = field(default_factory=tuple)
    errors: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.dataset is not None


def _read_header(source, expected, errors: list[str]):
    """Rows of ``source`` past its header, and the index of each ``expected`` column.

    The header line decides the delimiter: a tab when it holds a tab and no
    comma, a comma otherwise.
    """
    lines = iter(source)
    first = next(lines, None)
    if first is None:
        errors.append("no rows")
        return lines, None
    delimiter = "\t" if "\t" in first and "," not in first else ","
    rows = csv.reader(lines, delimiter=delimiter)
    try:
        header = next(csv.reader([first], delimiter=delimiter))
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        errors.append(f"row 1: {exc}")
        return rows, None
    names = [c.strip() for c in header]
    unknown = [c for c in names if c not in expected]
    missing = [c for c in expected if c not in names]
    dupes = [c for c in set(names) if names.count(c) > 1]
    if unknown:
        errors.append(f"row 1: unknown column(s) {unknown}; expected {list(expected)}")
    if missing:
        errors.append(f"row 1: missing column(s) {missing}")
    if dupes:
        errors.append(f"row 1: duplicated column(s) {sorted(dupes)}")
    if unknown or missing or dupes:
        return rows, None
    return rows, [names.index(name) for name in expected]


def _report(errors: list[str], groups: dict[str, list], warnings: tuple | list = ()) -> IngestReport:
    """No dataset if anything went wrong, else one group per ``groups`` entry."""
    if errors:
        return IngestReport(None, warnings=tuple(warnings), errors=tuple(errors))
    dataset = Dataset(tuple(Group(id=gid, members=tuple(ms)) for gid, ms in groups.items()))
    return IngestReport(dataset, warnings=tuple(warnings))


def read_long_form(source) -> IngestReport:
    """Parse per-paper rows ``group_id,researcher_id,paper_id,citations``.

    ``source`` is a path or an open file (or any iterable of lines), comma-
    or tab-delimited.  Rows are grouped by (group, researcher) in
    first-appearance order; each member's h-index and citation total are
    computed from its papers.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return read_long_form(fh)
    errors: list[str] = []
    papers: dict[tuple[str, str], list[int]] = {}
    seen_papers: set[tuple[str, str, str]] = set()
    groups: dict[str, list[ResearcherProfile]] = {}

    rows, columns = _read_header(source, LONG_FORM_HEADER, errors)
    if columns is None:
        return _report(errors, groups)

    g_col, r_col, p_col, c_col = columns
    lineno = 1
    try:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(LONG_FORM_HEADER):
                errors.append(f"row {lineno}: expected {len(LONG_FORM_HEADER)} fields, got {len(row)}")
                continue
            gid = row[g_col].strip()
            rid = row[r_col].strip()
            pid = row[p_col].strip()
            raw = row[c_col].strip()
            if not gid or not rid or not pid:
                errors.append(f"row {lineno}: blank group_id, researcher_id, or paper_id")
                continue
            cites = _parse_count(raw, "citations", lineno, errors)
            if cites is None:
                continue
            if (gid, rid, pid) in seen_papers:
                errors.append(f"row {lineno}: duplicate paper {pid!r} for {rid!r} in {gid!r}")
                continue
            seen_papers.add((gid, rid, pid))
            papers.setdefault((gid, rid), []).append(cites)
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        lineno += 1
        errors.append(f"row {lineno}: {exc}")

    if lineno == 1:
        errors.append("no data rows")
    if errors:
        return _report(errors, groups)

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
    return _report(errors, groups)


def _parse_count(raw: str, column: str, lineno: int, errors: list[str]) -> int | None:
    """``raw`` as a count in ``[0, MAX_COUNT]``; None after recording why not."""
    try:
        value = int(raw)
    except ValueError:
        if not (raw.isascii() and raw.isdigit()):
            errors.append(f"row {lineno}: {column} {raw!r} is not an integer")
            return None
        value = MAX_COUNT + 1  # too many digits for int(), so past the ceiling
    if value < 0:
        errors.append(f"row {lineno}: negative {column} {value}")
        return None
    if value > MAX_COUNT:
        errors.append(f"row {lineno}: {column} exceeds the ceiling 10**50")
        return None
    return value


def read_summary_form(source) -> IngestReport:
    """Parse per-researcher rows ``group_id,researcher_id,h_index,total_citations``.

    ``source`` is as for :func:`read_long_form`.  ``total_citations`` may
    be empty; such members are kept with a warning since
    citation-distribution analyses will have to exclude them.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return read_summary_form(fh)
    errors: list[str] = []
    warnings: list[str] = []
    members: dict[str, list[ResearcherProfile]] = {}
    seen: set[tuple[str, str]] = set()

    rows, columns = _read_header(source, SUMMARY_FORM_HEADER, errors)
    if columns is None:
        return _report(errors, members, warnings)

    g_col, r_col, h_col, t_col = columns
    lineno = 1
    try:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(SUMMARY_FORM_HEADER):
                errors.append(f"row {lineno}: expected {len(SUMMARY_FORM_HEADER)} fields, got {len(row)}")
                continue
            gid = row[g_col].strip()
            rid = row[r_col].strip()
            h_raw = row[h_col].strip()
            total_raw = row[t_col].strip()
            if not gid or not rid:
                errors.append(f"row {lineno}: blank group_id or researcher_id")
                continue
            h = _parse_count(h_raw, "h_index", lineno, errors)
            if h is None:
                continue
            total: int | None = None
            if total_raw:
                total = _parse_count(total_raw, "total_citations", lineno, errors)
                if total is None:
                    continue
                if h > total:
                    errors.append(
                        f"row {lineno}: h_index {h} exceeds total_citations {total}"
                    )
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
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        lineno += 1
        errors.append(f"row {lineno}: {exc}")

    if lineno == 1:
        errors.append("no data rows")
    return _report(errors, members, warnings)


# ---------------------------------------------------------------------------
# structured (JSON) document format

_GROUP_KEYS = {"id", "label", "quality_tag", "members"}
_MEMBER_KEYS = {"id", "h_index", "total_citations", "paper_citations"}


def write_dataset(dataset: Dataset) -> dict:
    """Lossless document form of a dataset; see :func:`read_dataset`."""
    groups = []
    for g in dataset.groups:
        doc: dict = {"id": g.id, "label": g.label}
        if g.quality_tag is not None:
            doc["quality_tag"] = g.quality_tag
        doc["members"] = [_member_doc(m) for m in g.members]
        groups.append(doc)
    return {"groups": groups}


def _member_doc(m: ResearcherProfile) -> dict:
    doc: dict = {"id": m.id, "h_index": m.h_index}
    if m.total_citations is not None:
        doc["total_citations"] = m.total_citations
    if m.paper_citations is not None:
        doc["paper_citations"] = list(m.paper_citations)
    return doc


def read_dataset(document: dict) -> IngestReport:
    """Parse a document produced by :func:`write_dataset`.

    Unknown keys are rejected; every schema problem is reported with the
    path to the offending node.  A structurally valid document is then run
    through model validation, and any violations are reported as errors.
    """
    errors: list[str] = []
    if not isinstance(document, dict):
        return IngestReport(None, errors=("document: expected an object",))
    unknown = set(document) - {"groups"}
    if unknown:
        errors.append(f"document: unknown key(s) {sorted(unknown)}")
    raw_groups = document.get("groups")
    if not isinstance(raw_groups, list):
        errors.append("groups: expected a list")
        return IngestReport(None, errors=tuple(errors))

    groups = [_parse_group(raw, f"groups[{gi}]", errors) for gi, raw in enumerate(raw_groups)]
    if errors:  # a group that did not parse recorded why
        return IngestReport(None, errors=tuple(errors))

    dataset = Dataset(tuple(groups))
    violations = validate(dataset)
    if violations:
        return IngestReport(None, errors=tuple(str(v) for v in violations))
    return IngestReport(dataset)


def _parse_group(raw, path: str, errors: list[str]) -> Group | None:
    if not _is_entry(raw, _GROUP_KEYS, path, errors):
        return None
    if "members" not in raw:
        errors.append(f"{path}: missing 'members'")
        return None
    if not isinstance(raw["members"], list) or not raw["members"]:
        errors.append(f"{path}.members: expected a non-empty list")
        return None
    for key in ("label", "quality_tag"):
        if raw.get(key) is not None and not isinstance(raw[key], str):
            errors.append(f"{path}.{key}: expected a string")
            return None

    members = [
        _parse_member(m, f"{path}.members[{mi}]", errors) for mi, m in enumerate(raw["members"])
    ]
    if None in members:
        return None
    return Group(raw["id"], tuple(members), raw.get("label"), raw.get("quality_tag"))


def _parse_member(raw, path: str, errors: list[str]) -> ResearcherProfile | None:
    if not _is_entry(raw, _MEMBER_KEYS, path, errors):
        return None
    if "h_index" not in raw or not _is_count(raw["h_index"]):
        errors.append(f"{path}.h_index: expected an integer in [0, 10**50]")
        return None
    total = raw.get("total_citations")
    if total is not None and not _is_count(total):
        errors.append(f"{path}.total_citations: expected an integer in [0, 10**50]")
        return None
    papers = raw.get("paper_citations")
    if papers is not None:
        if not isinstance(papers, list) or not all(_is_count(c) for c in papers):
            errors.append(f"{path}.paper_citations: expected a list of integers in [0, 10**50]")
            return None
        papers = tuple(papers)
    return ResearcherProfile(
        id=raw["id"], h_index=raw["h_index"], total_citations=total, paper_citations=papers
    )


def _is_entry(raw, keys: set[str], path: str, errors: list[str]) -> bool:
    """Whether ``raw`` is an object of known ``keys`` with a non-empty string id."""
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object")
    elif set(raw) - keys:
        errors.append(f"{path}: unknown key(s) {sorted(set(raw) - keys)}")
    elif not isinstance(raw.get("id"), str) or not raw["id"]:
        errors.append(f"{path}: missing or invalid 'id'")
    else:
        return True
    return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_COUNT


# ---------------------------------------------------------------------------
# format sniffing for file-based workflows


def read_dataset_file(path: str | os.PathLike) -> IngestReport:
    """Load a dataset from a JSON document or a tabular file.

    ``.json`` files are parsed as structured documents; anything else is
    tabular, read in long form when its header line names ``paper_id`` and
    in summary form when it names ``h_index``.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            with open(path, encoding="utf-8-sig") as fh:
                document = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also too many digits or too deep
            return IngestReport(None, errors=(f"invalid JSON: {exc}",))
        return read_dataset(document)

    with open(path, encoding="utf-8-sig", newline="") as fh:
        header_line = fh.readline()
        fh.seek(0)
        if "paper_id" in header_line:
            return read_long_form(fh)
        if "h_index" in header_line:
            return read_summary_form(fh)
        return IngestReport(
            None,
            errors=(
                "unrecognized header; expected "
                f"{','.join(LONG_FORM_HEADER)} or {','.join(SUMMARY_FORM_HEADER)}",
            ),
        )
