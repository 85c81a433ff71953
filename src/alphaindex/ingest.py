"""File parsing, validation, and serialization of datasets.

Two tabular schemas are first-class because public bibliometric data comes
both ways: *long form* with one row per paper (h-indexes are then computed
here) and *summary form* with one row per researcher.  A JSON document
format round-trips datasets losslessly.  Parsers never raise on bad content;
every problem is collected into the returned :class:`IngestReport` with its
row or document path.  A tabular row is named by the file line on which the
csv reader finished its record (the header is line 1), so a record whose
quoted field spans lines is named by its last line.  A count above
:data:`model.MAX_COUNT` is such a problem, and so are a file that is not
UTF-8 text, an id that is blank, and an id that holds a control character,
which would break the line it is printed on.
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
from .model import MAX_COUNT, Dataset, Group, ResearcherProfile, _checked_profile, validate

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


class _RowError(ValueError):
    """A refused row; the row loop that catches it puts the row's line in front."""


def _read_header(lines, first: str, expected, errors: list[str]):
    """A csv reader over ``lines``, the rows past the header line ``first``,
    and the index of each ``expected`` column, or None after recording why not.

    The header line decides the delimiter: a tab when it holds a tab and no
    comma, a comma otherwise.
    """
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


def _read_table(source, form) -> IngestReport:
    """The one tabular reader: open, check the header, run ``form``'s row loop, report.

    ``source`` is a path or an open file (or any iterable of lines).
    ``form`` is :data:`_LONG_FORM` or :data:`_SUMMARY_FORM`, or None to
    pick one by the header line: long form when it names ``paper_id``,
    summary form when it names ``h_index``.  The header is file line 1 and
    is read once.  A row loop names a record by the file line it ends on,
    ``rows.line_num + 1``, and reads that only where it records a problem.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return _read_table(fh, form)
    errors: list[str] = []
    warnings: list[str] = []
    groups: dict[str, list[ResearcherProfile]] = {}
    lines = iter(source)
    try:
        first = next(lines, "")
        if form is None:  # the header line names the form
            form = (
                _LONG_FORM if "paper_id" in first else _SUMMARY_FORM if "h_index" in first else None
            )
        if form is None:
            errors.append(
                "unrecognized header; expected "
                f"{','.join(LONG_FORM_HEADER)} or {','.join(SUMMARY_FORM_HEADER)}"
            )
        elif not first:
            errors.append("no rows")
        else:
            expected, row_loop = form
            rows, columns = _read_header(lines, first, expected, errors)
            if columns is not None:
                groups = row_loop(rows, operator.itemgetter(*columns), errors, warnings)
                if not rows.line_num and not errors:
                    errors.append("no data rows")
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        errors.append(f"row {rows.line_num + 1}: {exc}")
    except UnicodeDecodeError as exc:
        errors.append(_not_utf8(exc))
    return _report(errors, groups, warnings)


def read_long_form(source) -> IngestReport:
    """Parse per-paper rows ``group_id,researcher_id,paper_id,citations``.

    ``source`` is a path or an open file (or any iterable of lines), comma-
    or tab-delimited.  Rows are grouped by (group, researcher) in
    first-appearance order; each member's h-index and citation total are
    computed from its papers.  A member is looked up once per run of
    consecutive rows naming it, so a file that lists each member's papers
    together costs one lookup per member; a member whose rows resume later
    still merges into its first entry.  A paper id repeated within one
    member is an error, wherever in the file the repeat appears.  A problem
    is named by the file line its row ends on.
    """
    return _read_table(source, _LONG_FORM)


def _long_form_rows(rows, fields, errors: list[str], warnings: list[str]) -> dict:
    """The groups of :func:`read_long_form`, or none once a row is refused."""
    # per member, its papers' citations keyed by paper id, in file order
    papers: dict[tuple[str, str], dict[str, int]] = {}
    width = len(LONG_FORM_HEADER)
    run_gid = run_rid = None  # the member of the previous valid row
    member: dict[str, int] = {}
    for row in rows:
        try:
            if len(row) != width:
                raise _RowError(f"expected {width} fields, got {len(row)}")
            gid, rid, pid, raw = fields(row)
            gid = gid.strip()
            rid = rid.strip()
            pid = pid.strip()
            if not gid or not rid or not pid:
                raise _RowError("blank group_id, researcher_id, or paper_id")
            if raw.isdigit() and raw.isascii() and len(raw) <= _PLAIN_DIGITS:
                cites = int(raw)
            else:
                cites = _parse_count(raw.strip(), "citations")
            if rid != run_rid or gid != run_gid:
                if not (gid.isprintable() and rid.isprintable()) and _has_control(gid, rid):
                    raise _RowError(_CONTROL_ID)
                run_gid, run_rid = gid, rid
                member = papers.get((gid, rid))
                if member is None:
                    member = papers[gid, rid] = {}
            if pid in member:
                raise _RowError(f"duplicate paper {pid!r} for {rid!r} in {gid!r}")
        except _RowError as exc:
            errors.append(f"row {rows.line_num + 1}: {exc}")
            continue
        member[pid] = cites

    groups: dict[str, list[ResearcherProfile]] = {}
    if errors:
        return groups
    for (gid, rid), member in papers.items():
        cites = tuple(member.values())
        total = sum(cites)
        if total > MAX_COUNT:
            errors.append(f"{rid!r} in {gid!r}: total citations exceed the ceiling 10**50")
            continue
        groups.setdefault(gid, []).append(_checked_profile((rid, h_index(cites), total, cites)))
    return groups


# A field of at most this many ASCII digits is a count below 10**50 <= MAX_COUNT,
# so the row loops read it with int() alone; any other field goes to _parse_count.
_PLAIN_DIGITS = 50


def _parse_count(raw: str, column: str) -> int:
    """``raw`` as a count in ``[0, MAX_COUNT]``, else :class:`_RowError` saying why not.

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
        raise _RowError(f"{column} exceeds the ceiling 10**50")
    digits = raw[1:]
    if raw[:1] == "-" and digits.isascii() and digits.isdigit():
        try:
            value = int(raw)
        except ValueError:  # too many digits for int(): not an integer, below
            pass
        else:
            if not value:  # "-0"
                return 0
            raise _RowError(f"negative {column} {value}")
    raise _RowError(f"{column} {raw!r} is not an integer")


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
    the repeat appears.  A problem is named by the file line its row ends on.
    """
    return _read_table(source, _SUMMARY_FORM)


def _summary_form_rows(rows, fields, errors: list[str], warnings: list[str]) -> dict:
    """The groups of :func:`read_summary_form`; ``errors`` says whether they count."""
    groups: dict[str, list[ResearcherProfile]] = {}
    member_ids: dict[str, set[str]] = {}  # per group, the ids in its list
    width = len(SUMMARY_FORM_HEADER)
    run_gid = None  # the group of the previous valid row
    members: list[ResearcherProfile] = []
    ids: set[str] = set()
    for row in rows:
        try:
            if len(row) != width:
                raise _RowError(f"expected {width} fields, got {len(row)}")
            gid, rid, h_raw, total_raw = fields(row)
            gid = gid.strip()
            rid = rid.strip()
            if not gid or not rid:
                raise _RowError("blank group_id or researcher_id")
            if not (gid.isprintable() and rid.isprintable()) and _has_control(gid, rid):
                raise _RowError(_CONTROL_ID)
            if h_raw.isdigit() and h_raw.isascii() and len(h_raw) <= _PLAIN_DIGITS:
                h = int(h_raw)
            else:
                h = _parse_count(h_raw.strip(), "h_index")
            total: int | None = None
            if total_raw.isdigit() and total_raw.isascii() and len(total_raw) <= _PLAIN_DIGITS:
                total = int(total_raw)
            elif total_raw.strip():
                total = _parse_count(total_raw.strip(), "total_citations")
            else:
                warnings.append(
                    f"row {rows.line_num + 1}: {rid!r} has no total_citations; "
                    "citation-distribution analyses will exclude this member"
                )
            if total is not None and h > total:
                raise _RowError(f"h_index {h} exceeds total_citations {total}")
            if gid != run_gid:
                run_gid = gid
                if gid not in groups:
                    groups[gid] = []
                    member_ids[gid] = set()
                members, ids = groups[gid], member_ids[gid]
            if rid in ids:
                raise _RowError(f"duplicate researcher {rid!r} in group {gid!r}")
        except _RowError as exc:
            errors.append(f"row {rows.line_num + 1}: {exc}")
            continue
        ids.add(rid)
        members.append(_checked_profile((rid, h, total, None)))
    return groups


_LONG_FORM = (LONG_FORM_HEADER, _long_form_rows)
_SUMMARY_FORM = (SUMMARY_FORM_HEADER, _summary_form_rows)


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
        if key in raw and not isinstance(raw[key], str):
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
    if "total_citations" in raw and not _is_count(total):
        errors.append(f"{path}.total_citations: expected an integer in [0, 10**50]")
        return None
    papers = raw.get("paper_citations")
    if "paper_citations" in raw:
        papers = _plain_counts(papers) if isinstance(papers, list) else None
        if papers is None:
            errors.append(f"{path}.paper_citations: expected a list of integers in [0, 10**50]")
            return None
    # every field is checked above; the counts are stored as plain ints
    return _checked_profile(
        (raw["id"], int(raw["h_index"]), None if total is None else int(total), papers)
    )


def _is_entry(raw, keys: set[str], path: str, errors: list[str]) -> bool:
    """Whether ``raw`` is an object of known ``keys`` with a printable id that is not blank."""
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object")
    elif set(raw) - keys:
        errors.append(f"{path}: unknown key(s) {sorted(set(raw) - keys)}")
    elif not isinstance(raw.get("id"), str) or not _is_id(raw["id"]):
        errors.append(f"{path}: missing or invalid 'id'")
    else:
        return True
    return False


def _is_id(text: str) -> bool:
    """False for a blank id, which the tabular readers also refuse, for a lone
    surrogate, which a JSON escape can spell and no output can encode, and for
    a control character (see :func:`_has_control`)."""
    if not text.strip():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return text.isprintable() or not _has_control(text)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_COUNT


def _plain_counts(values: list) -> tuple[int, ...] | None:
    """``values`` as a tuple of plain ints if each passes :func:`_is_count`, else None."""
    # plain ints are checked inline, without a call per value
    if all(type(v) is int and 0 <= v <= MAX_COUNT for v in values):
        return tuple(values)
    return tuple(map(int, values)) if all(map(_is_count, values)) else None


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
    return _read_table(path, None)
