"""File parsing, validation, and serialization of datasets.

Two tabular schemas are first-class because public bibliometric data comes
both ways: *long form* with one row per paper (h-indexes are then computed
here) and *summary form* with one row per researcher.  A JSON document
format round-trips datasets losslessly.  Parsers never raise on bad content;
every problem is collected into the returned :class:`IngestReport` with its
row number or document path.  A count above :data:`model.MAX_COUNT` is such a
problem, and so are a file that is not UTF-8 text and an id that holds a
control character, which would break the line it is printed on.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import re
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
    try:
        first = next(lines, None)
    except UnicodeDecodeError as exc:
        errors.append(_not_utf8(exc))
        return lines, None
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


def _not_utf8(exc: UnicodeDecodeError) -> str:
    # no row number or position: the decoder reads ahead in chunks, so the
    # failing read may lie rows past the last row parsed, and the codec's
    # position counts from the start of its chunk, not of the file
    return f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x}: {exc.reason}"


# C0 and C1 controls, DEL, and the line and paragraph separators: an id
# holding one would break a line of output or reach a terminal raw
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")
_CONTROL_ID = "group_id or researcher_id contains a control character"


def _has_control(*ids: str) -> bool:
    """Whether any of ``ids`` holds a character that :data:`_CONTROL` matches.

    The readers test ``str.isprintable`` first and call this only when it
    fails: that test runs at C speed and passes nearly every id, but it also
    fails on characters an id may hold, such as NBSP and ZWNJ.
    """
    return any(_CONTROL.search(i) for i in ids)


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
    computed from its papers.  A member is looked up once per run of
    consecutive rows naming it, so a file that lists each member's papers
    together costs one lookup per member; a member whose rows resume later
    still merges into its first entry.  A paper id repeated within one
    member is an error, wherever in the file the repeat appears.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return read_long_form(fh)
    errors: list[str] = []
    # per member, its papers' citations keyed by paper id, in file order
    papers: dict[tuple[str, str], dict[str, int]] = {}
    groups: dict[str, list[ResearcherProfile]] = {}

    rows, columns = _read_header(source, LONG_FORM_HEADER, errors)
    if columns is None:
        return _report(errors, groups)

    fields = operator.itemgetter(*columns)
    width = len(LONG_FORM_HEADER)
    run_gid = run_rid = None  # the member of the previous valid row
    member: dict[str, int] = {}
    lineno = 1
    try:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != width:
                errors.append(f"row {lineno}: expected {width} fields, got {len(row)}")
                continue
            gid, rid, pid, raw = fields(row)
            gid = gid.strip()
            rid = rid.strip()
            pid = pid.strip()
            if not gid or not rid or not pid:
                errors.append(f"row {lineno}: blank group_id, researcher_id, or paper_id")
                continue
            cites = _parse_count(raw.strip(), "citations", lineno, errors)
            if cites is None:
                continue
            if rid != run_rid or gid != run_gid:
                if not (gid.isprintable() and rid.isprintable()) and _has_control(gid, rid):
                    errors.append(f"row {lineno}: {_CONTROL_ID}")
                    continue
                run_gid, run_rid = gid, rid
                member = papers.get((gid, rid))
                if member is None:
                    member = papers[gid, rid] = {}
            if pid in member:
                errors.append(f"row {lineno}: duplicate paper {pid!r} for {rid!r} in {gid!r}")
                continue
            member[pid] = cites
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        lineno += 1
        errors.append(f"row {lineno}: {exc}")
    except UnicodeDecodeError as exc:
        errors.append(_not_utf8(exc))

    if lineno == 1 and not errors:
        errors.append("no data rows")
    if errors:
        return _report(errors, groups)

    for (gid, rid), member in papers.items():
        cites = list(member.values())
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
    """``raw`` as a count in ``[0, MAX_COUNT]``; None after recording why not.

    A count is ASCII digits only: ``int()`` would also take ``+3``, ``1_0``
    and non-ASCII decimal digits.  A leading ``-`` is named as a negative.
    """
    if raw.isascii() and raw.isdigit():
        try:
            value = int(raw)
        except ValueError:  # too many digits for int(), so past the ceiling
            value = MAX_COUNT + 1
        if value <= MAX_COUNT:
            return value
        errors.append(f"row {lineno}: {column} exceeds the ceiling 10**50")
        return None
    digits = raw[1:]
    if raw[:1] == "-" and digits.isascii() and digits.isdigit():
        try:
            value = int(raw)
        except ValueError:  # too many digits for int(): not an integer, below
            pass
        else:
            if not value:  # "-0"
                return 0
            errors.append(f"row {lineno}: negative {column} {value}")
            return None
    errors.append(f"row {lineno}: {column} {raw!r} is not an integer")
    return None


def read_summary_form(source) -> IngestReport:
    """Parse per-researcher rows ``group_id,researcher_id,h_index,total_citations``.

    ``source`` is as for :func:`read_long_form`.  ``total_citations`` may
    be empty; such members are kept with a warning since
    citation-distribution analyses will have to exclude them.  Members keep
    file order within their group, and groups their first appearance.  A
    group is looked up once per run of consecutive rows naming it, so a file
    that lists each group's members together costs one lookup per group; a
    group whose rows resume later still merges into its first entry.  A
    researcher repeated within one group is an error, wherever in the file
    the repeat appears.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return read_summary_form(fh)
    errors: list[str] = []
    warnings: list[str] = []
    groups: dict[str, list[ResearcherProfile]] = {}
    member_ids: dict[str, set[str]] = {}  # per group, the ids in its list

    rows, columns = _read_header(source, SUMMARY_FORM_HEADER, errors)
    if columns is None:
        return _report(errors, groups, warnings)

    fields = operator.itemgetter(*columns)
    width = len(SUMMARY_FORM_HEADER)
    run_gid = None  # the group of the previous valid row
    members: list[ResearcherProfile] = []
    ids: set[str] = set()
    lineno = 1
    try:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != width:
                errors.append(f"row {lineno}: expected {width} fields, got {len(row)}")
                continue
            gid, rid, h_raw, total_raw = fields(row)
            gid = gid.strip()
            rid = rid.strip()
            if not gid or not rid:
                errors.append(f"row {lineno}: blank group_id or researcher_id")
                continue
            if not (gid.isprintable() and rid.isprintable()) and _has_control(gid, rid):
                errors.append(f"row {lineno}: {_CONTROL_ID}")
                continue
            h = _parse_count(h_raw.strip(), "h_index", lineno, errors)
            if h is None:
                continue
            total_raw = total_raw.strip()
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
            if gid != run_gid:
                run_gid = gid
                if gid not in groups:
                    groups[gid] = []
                    member_ids[gid] = set()
                members, ids = groups[gid], member_ids[gid]
            if rid in ids:
                errors.append(f"row {lineno}: duplicate researcher {rid!r} in group {gid!r}")
                continue
            ids.add(rid)
            members.append(ResearcherProfile(rid, h, total))
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        lineno += 1
        errors.append(f"row {lineno}: {exc}")
    except UnicodeDecodeError as exc:
        errors.append(_not_utf8(exc))

    if lineno == 1 and not errors:
        errors.append("no data rows")
    return _report(errors, groups, warnings)


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
    """Whether ``raw`` is an object of known ``keys`` with a non-empty, printable id."""
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object")
    elif set(raw) - keys:
        errors.append(f"{path}: unknown key(s) {sorted(set(raw) - keys)}")
    elif not isinstance(raw.get("id"), str) or not raw["id"] or not _is_printable(raw["id"]):
        errors.append(f"{path}: missing or invalid 'id'")
    else:
        return True
    return False


def _is_printable(text: str) -> bool:
    """False for a lone surrogate, which a JSON escape can spell and no output can
    encode, and for a control character (see :func:`_has_control`)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return text.isprintable() or not _has_control(text)


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
        try:
            header_line = fh.readline()
        except UnicodeDecodeError as exc:
            return IngestReport(None, errors=(_not_utf8(exc),))
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
