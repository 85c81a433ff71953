"""Tabular and JSON ingest: schemas, row errors, round trips."""

import csv
import io
import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from alphaindex.cli import main
from alphaindex.ingest import (
    LONG_FORM_HEADER,
    SUMMARY_FORM_HEADER,
    read_dataset,
    read_dataset_file,
    read_long_form,
    read_summary_form,
    write_dataset,
)
from alphaindex.metrics import h_index
from alphaindex.model import ResearcherProfile, validate

import ingest_reference
from conftest import random_dataset


DATASET_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "dataset.schema.json").read_text(encoding="utf-8")
)


def rows(text: str) -> io.StringIO:
    return io.StringIO(text)


class TestLongForm:
    def test_members_built_from_papers(self):
        report = read_long_form(rows(
            "group_id,researcher_id,paper_id,citations\n"
            "g,r,p1,10\n"
            "g,r,p2,3\n"
        ))
        assert report.ok
        member = report.dataset.groups[0].members[0]
        assert member.h_index == 2
        assert member.total_citations == 13
        assert member.paper_citations == (10, 3)

    def test_negative_citations_named_by_row(self):
        report = read_long_form(rows(
            "group_id,researcher_id,paper_id,citations\n"
            "g,r,p1,-1\n"
        ))
        assert not report.ok
        assert any("row 2" in e for e in report.errors)

    def test_empty_file(self):
        report = read_long_form(rows(""))
        assert report.errors == ("no rows",)

    def test_header_only(self):
        report = read_long_form(rows("group_id,researcher_id,paper_id,citations\n"))
        assert not report.ok
        assert any("no data rows" in e for e in report.errors)

    def test_header_validated_by_name_not_position(self):
        report = read_long_form(rows(
            "citations,group_id,paper_id,researcher_id\n"
            "4,g,p1,r\n"
        ))
        assert report.ok
        assert report.dataset.groups[0].members[0].h_index == 1

    def test_unknown_column_rejected(self):
        report = read_long_form(rows("group_id,researcher_id,paper_id,citations,extra\nx,y,z,1,2\n"))
        assert not report.ok
        assert any("unknown column" in e for e in report.errors)

    @pytest.mark.parametrize(
        "header, error",
        [
            ("group_id,researcher_id,paper_id", "row 1: missing column(s) ['citations']"),
            ("group_id,researcher_id,paper_id,citations,citations",
             "row 1: duplicated column(s) ['citations']"),
        ],
        ids=["missing", "duplicated"],
    )
    def test_header_refusals(self, header, error):
        assert read_long_form(rows(header + "\ng,r,p1,1\n")).errors == (error,)

    def test_blank_ids_and_bad_integers(self):
        report = read_long_form(rows(
            "group_id,researcher_id,paper_id,citations\n"
            ",r,p,1\n"
            "g,r,p,notanumber\n"
        ))
        assert not report.ok
        assert len(report.errors) == 2

    def test_member_order_follows_first_appearance(self):
        report = read_long_form(rows(
            "group_id,researcher_id,paper_id,citations\n"
            "g,second,p1,1\n"
            "g,first,p1,2\n"
            "g,second,p2,9\n"
        ))
        # 'second' appeared first in the file
        assert [m.id for m in report.dataset.groups[0].members] == ["second", "first"]

    def test_computed_h_matches_direct_definition(self, rng):
        lines = ["group_id,researcher_id,paper_id,citations"]
        expected = {}
        for ri in range(20):
            cites = [int(c) for c in rng.integers(0, 40, size=int(rng.integers(1, 15)))]
            expected[f"r{ri}"] = h_index(cites)
            lines += [f"g,r{ri},p{ri}-{pi},{c}" for pi, c in enumerate(cites)]
        report = read_long_form(rows("\n".join(lines) + "\n"))
        assert report.ok
        for member in report.dataset.groups[0].members:
            assert member.h_index == expected[member.id]


class TestLongFormRuns:
    """A member is looked up once per run of rows; its runs merge in order."""

    @pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
    def test_duplicate_paper_after_another_members_rows(self, delimiter):
        lines = [
            LONG_FORM_HEADER,
            ("g", "A", "p1", "5"),
            ("g", "A", "p2", "3"),
            ("g", "B", "p1", "4"),  # the same paper id under another member
            ("h", "A", "p1", "2"),  # and under the same researcher in another group
            ("g", "A", "p1", "7"),
            ("g", "A", "p3", "1"),
            ("g", "B", "p2", "x"),
            ("g", "B", "p1", "6"),
        ]
        report = read_long_form(rows("".join(delimiter.join(r) + "\n" for r in lines)))
        assert report.errors == (
            "row 6: duplicate paper 'p1' for 'A' in 'g'",
            "row 8: citations 'x' is not an integer",
            "row 9: duplicate paper 'p1' for 'B' in 'g'",
        )

    @pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
    def test_member_rows_merge_across_runs(self, delimiter):
        lines = [
            LONG_FORM_HEADER,
            ("g", "A", "p1", "5"),
            ("g", "A", "p2", "3"),
            ("g", "B", "p1", "4"),
            ("g", " A ", "p3", "7"),
            ("h", "A", "p1", "2"),
            ("g", "A", "p4", "1"),
        ]
        report = read_long_form(rows("".join(delimiter.join(r) + "\n" for r in lines)))
        assert report.ok, report.errors
        g, h = report.dataset.groups
        assert [m.id for m in g.members] == ["A", "B"]
        a = g.members[0]
        assert (a.paper_citations, a.h_index, a.total_citations) == ((5, 3, 7, 1), 3, 16)
        assert g.members[1].paper_citations == (4,)
        assert (h.id, [m.paper_citations for m in h.members]) == ("h", [(2,)])


def _random_long_form(rng) -> bytes:
    """A small long-form file; most carry row errors, some are clean."""
    clean = rng.random() < 0.35
    delimiter = "\t" if rng.random() < 0.3 else ","
    header = list(LONG_FORM_HEADER)
    if rng.random() < 0.3:
        rng.shuffle(header)
    bad_counts = ["x", "+3", "1_0", "\u0663", "\u00b2", "-2", "-0", " 7 ", "", "1.5",
                  str(10**50 + 1)]
    lines = [delimiter.join(header)]
    member = ("g0", "r0")
    next_paper: dict[tuple[str, str], int] = {}
    for _ in range(int(rng.integers(0, 30))):
        if rng.random() < 0.4:  # else the run of the previous member goes on
            # researcher ids repeat across groups
            member = (f"g{rng.integers(3)}", f"r{rng.integers(4)}")
        if clean:
            paper = next_paper.get(member, 0)
            next_paper[member] = paper + 1
        else:  # few paper ids, so repeats come both adjacent and apart
            paper = int(rng.integers(6))
        cells = {
            "group_id": member[0],
            "researcher_id": member[1],
            "paper_id": f"p{paper}",
            "citations": str(rng.integers(0, 40)),
        }
        if rng.random() < 0.2:  # padding that stripping removes
            key = header[int(rng.integers(4))]
            cells[key] = f" {cells[key]} "
        if clean and rng.random() < 0.05:  # valid alone, past the ceiling in a sum
            cells["citations"] = str(10**50)
        if not clean:
            roll = rng.random()
            if roll < 0.06:
                blank = ("group_id", "researcher_id", "paper_id")[rng.integers(3)]
                cells[blank] = " " * int(rng.integers(2))
            elif roll < 0.18:
                cells["citations"] = bad_counts[int(rng.integers(len(bad_counts)))]
        row = [cells[c] for c in header]
        if not clean and rng.random() < 0.04:
            row = row[:3] if rng.random() < 0.5 else row + ["extra"]
        lines.append(delimiter.join(row))
    text = "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")
    bom = b"\xef\xbb\xbf" if rng.random() < 0.2 else b""
    return bom + text.encode("utf-8")


def test_long_form_matches_reference_loop(tmp_path, rng):
    reports = []
    for i in range(300):
        path = tmp_path / f"{i}.csv"
        path.write_bytes(_random_long_form(rng))
        report = read_long_form(path)
        assert report == ingest_reference.read_long_form(path), path.read_bytes()
        reports.append(report)
    # the comparison covers datasets, repeated papers and every row error
    errors = [e for r in reports for e in r.errors]
    assert sum(r.ok for r in reports) > 60
    for kind in ("duplicate paper", "blank", "fields, got", "not an integer", "negative",
                 "exceeds the ceiling", "total citations exceed", "no data rows"):
        assert any(kind in e for e in errors), kind


def test_reader_built_profiles_match_the_public_constructor(tmp_path, rng):
    # the row loops build profiles without the constructor's checks
    synthetic = tmp_path / "synth.csv"
    assert main(["synth", "--beta", "0.3", "--x0", "5", "--n", "500", "--seed", "3", "--round",
                 "--format", "csv", "--output", str(synthetic)]) == 0
    reports = [read_summary_form(synthetic)]
    for i, make in enumerate([_random_long_form, _random_summary_form] * 100):
        path = tmp_path / f"{i}.csv"
        path.write_bytes(make(rng))
        reports.append(read_dataset_file(path))
    profiles = [m for r in reports if r.ok for g in r.dataset.groups for m in g.members]
    assert reports[0].ok
    assert any(p.paper_citations for p in profiles)
    assert any(p.paper_citations is None and p.total_citations is not None for p in profiles)
    for p in profiles:
        assert type(p) is ResearcherProfile
        assert ResearcherProfile(*p) == p
        counts = [p.h_index, *(p.paper_citations or ())]
        counts += [] if p.total_citations is None else [p.total_citations]
        assert all(type(c) is int for c in counts), p


class TestSummaryForm:
    def test_full_row(self):
        report = read_summary_form(rows(
            "group_id,researcher_id,h_index,total_citations\n"
            "g,r,12,500\n"
        ))
        assert report.ok
        assert report.dataset.groups[0].members[0].total_citations == 500

    def test_h_above_total_rejected(self):
        report = read_summary_form(rows(
            "group_id,researcher_id,h_index,total_citations\n"
            "g,r,12,5\n"
        ))
        assert not report.ok
        assert any("row 2" in e for e in report.errors)

    def test_missing_total_warns(self):
        report = read_summary_form(rows(
            "group_id,researcher_id,h_index,total_citations\n"
            "g,r,12,\n"
        ))
        assert report.ok
        assert report.dataset.groups[0].members[0].total_citations is None
        assert len(report.warnings) == 1

    def test_duplicate_researcher_rejected(self):
        report = read_summary_form(rows(
            "group_id,researcher_id,h_index,total_citations\n"
            "g,r,3,10\n"
            "g,r,4,20\n"
        ))
        assert not report.ok

    def test_member_in_two_groups_is_legal(self):
        report = read_summary_form(rows(
            "group_id,researcher_id,h_index,total_citations\n"
            "g1,r,3,10\n"
            "g2,r,3,10\n"
        ))
        assert report.ok
        assert len(report.dataset.groups) == 2

    def test_tab_delimiter(self):
        report = read_summary_form(rows(
            "group_id\tresearcher_id\th_index\ttotal_citations\n"
            "g\tr\t4\t30\n"
        ))
        assert report.ok


    def test_group_rows_merge_across_runs(self):
        report = read_summary_form(rows(
            "group_id,researcher_id,h_index,total_citations\n"
            "A,r1,3,10\n"
            "A,r2,4,20\n"
            "B,r1,5,30\n"
            "A,r3,6,40\n"
            "A,r2,7,50\n"
            "B,r2,8,60\n"
        ))
        assert report.errors == ("row 6: duplicate researcher 'r2' in group 'A'",)
        read = read_summary_form(rows(
            "group_id,researcher_id,h_index,total_citations\n"
            "A,r1,3,10\nA,r2,4,20\nB,r1,5,30\nA,r3,6,40\nB,r2,8,60\n"
        ))
        assert read.ok, read.errors
        assert [(g.id, [(m.id, m.h_index) for m in g.members]) for g in read.dataset.groups] == [
            ("A", [("r1", 3), ("r2", 4), ("r3", 6)]),
            ("B", [("r1", 5), ("r2", 8)]),
        ]


# C0 and C1 controls, DEL and the line and paragraph separators are refused;
# NBSP and ZWNJ, which str.isprintable also refuses, are legal
CONTROL_CHARS = ["\x00", "\t", "\n", "\r", "\x1b", "\x7f", "\x85", "\x9f", "\u2028", "\u2029"]
CONTROL_ERROR = "group_id or researcher_id contains a control character"


def quoted(*cells: str) -> str:
    return ",".join('"' + c + '"' for c in cells) + "\n"


class TestControlCharacters:
    @pytest.mark.parametrize("char", CONTROL_CHARS, ids=ascii)
    def test_summary_form(self, char):
        report = read_summary_form(rows(
            quoted(*SUMMARY_FORM_HEADER)
            + quoted("g", "r\u00a01", "3", "10")
            + quoted(f"g{char}x", "r2", "4", "20")
            + quoted("g", f"r{char}3", "x", "20")
            + quoted("g\u200c", "r4", "5", "")
        ))
        # a quoted "\n" ends its record a file line later; a "\r" does not,
        # since io.StringIO splits lines at "\n" only
        bad, warned = ((4, 6), 7) if char == "\n" else ((3, 4), 5)
        assert report.errors == tuple(f"row {n}: {CONTROL_ERROR}" for n in bad)
        assert report.warnings == (f"row {warned}: 'r4' has no total_citations; "
                                   "citation-distribution analyses will exclude this member",)

    @pytest.mark.parametrize("char", CONTROL_CHARS, ids=ascii)
    def test_long_form(self, char):
        report = read_long_form(rows(
            quoted(*LONG_FORM_HEADER)
            + quoted("g", "A\u00a0a", "p1", "5")
            + quoted("g", f"B{char}x", "p1", "3")
            + quoted("g", f"B{char}x", "p2", "3")  # a refused row starts no run
            + quoted("g", "A\u00a0a", "p2", "1")
            + quoted(f"g{char}x", "A\u00a0a", "p3", "1")
        ))
        bad = (4, 6, 9) if char == "\n" else (3, 4, 6)  # file lines, as above
        assert report.errors == tuple(f"row {n}: {CONTROL_ERROR}" for n in bad)
        clean = read_long_form(rows(
            quoted(*LONG_FORM_HEADER) + quoted("g\u200c", "A\u00a0a", "p1", "5")
        ))
        assert clean.ok and clean.dataset.groups[0].members[0].id == "A\u00a0a"

    @pytest.mark.parametrize("char", CONTROL_CHARS, ids=ascii)
    @pytest.mark.parametrize("where", ["groups[0]", "groups[0].members[0]"])
    def test_json_document(self, char, where):
        doc = {"groups": [{"id": "g\u00a0", "members": [{"id": "r\u200c", "h_index": 1}]}]}
        assert read_dataset(doc).ok
        entry = doc["groups"][0] if where == "groups[0]" else doc["groups"][0]["members"][0]
        entry["id"] = f"a{char}b"
        assert read_dataset(doc).errors == (f"{where}: missing or invalid 'id'",)


def _random_summary_form(rng) -> bytes:
    """A small summary-form file; most carry row errors, some are clean."""
    clean = rng.random() < 0.35
    delimiter = "\t" if rng.random() < 0.3 else ","
    header = list(SUMMARY_FORM_HEADER)
    if rng.random() < 0.3:
        rng.shuffle(header)
    bad_counts = ["x", "+3", "1_0", "\u0663", "\u00b2", "-2", "-0", "1.5", str(10**50 + 1)]
    lines = [delimiter.join(header)]
    gid = "g0"
    next_member: dict[str, int] = {}
    for _ in range(int(rng.integers(0, 30))):
        if rng.random() < 0.3:  # else the run of the previous group goes on
            gid = f"g{rng.integers(3)}"
        if clean:
            member = next_member.get(gid, 0)
            next_member[gid] = member + 1
        else:  # few researcher ids, so repeats come both adjacent and apart
            member = int(rng.integers(6))
        h = int(rng.integers(0, 40))
        cells = {
            "group_id": gid,
            "researcher_id": f"r{member}",
            "h_index": str(h),
            "total_citations": str(h + int(rng.integers(0, 400))),
        }
        if rng.random() < 0.15:  # kept with a warning
            cells["total_citations"] = " " * int(rng.integers(2))
        if rng.random() < 0.2:  # padding that stripping removes
            key = header[int(rng.integers(4))]
            cells[key] = f" {cells[key]} "
        if not clean:
            roll = rng.random()
            if roll < 0.06:
                cells[("group_id", "researcher_id")[rng.integers(2)]] = " " * int(rng.integers(2))
            elif roll < 0.18:
                key = ("h_index", "total_citations")[rng.integers(2)]
                cells[key] = bad_counts[int(rng.integers(len(bad_counts)))]
            elif roll < 0.24:
                cells["total_citations"] = str(max(h - 1, 0)) if h else "0"
                cells["h_index"] = str(h or 1)
        row = [cells[c] for c in header]
        if not clean and rng.random() < 0.05:
            row = [[], row[:3], row + ["extra"]][int(rng.integers(3))]
        lines.append(delimiter.join(row))
    text = "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")
    bom = b"\xef\xbb\xbf" if rng.random() < 0.2 else b""
    return bom + text.encode("utf-8")


def test_summary_form_matches_reference_loop(tmp_path, rng):
    reports = []
    for i in range(300):
        path = tmp_path / f"{i}.csv"
        path.write_bytes(_random_summary_form(rng))
        report = read_summary_form(path)
        assert report == ingest_reference.read_summary_form(path), path.read_bytes()
        reports.append(report)
    # the comparison covers datasets, warnings and every row error
    errors = [e for r in reports for e in r.errors]
    assert sum(r.ok for r in reports) > 60
    assert any(r.warnings for r in reports if r.ok)
    for kind in ("duplicate researcher", "blank", "fields, got 0", "fields, got 3",
                 "fields, got 5", "not an integer", "negative", "exceeds the ceiling",
                 "exceeds total_citations", "no data rows"):
        assert any(kind in e for e in errors), kind


def _one_member_doc(group=None, member=None) -> dict:
    """A one-group, one-member document with ``group`` and ``member`` keys merged in."""
    base_member = {"id": "r", "h_index": 1}
    return {"groups": [{"id": "g", "members": [base_member | (member or {})]} | (group or {})]}


class TestJsonDocuments:
    def test_round_trip_100_random_datasets(self, rng):
        for _ in range(100):
            dataset = random_dataset(rng)
            assert validate(dataset) == []
            report = read_dataset(write_dataset(dataset))
            assert report.ok, report.errors
            assert report.dataset == dataset

    def test_unknown_key_rejected_with_path(self):
        doc = {"groups": [{"id": "g", "members": [{"id": "r", "h_index": 1}], "bogus": 1}]}
        report = read_dataset(doc)
        assert not report.ok
        assert any("groups[0]" in e and "bogus" in e for e in report.errors)

    def test_missing_members_rejected_at_path(self):
        report = read_dataset({"groups": [{"id": "g"}]})
        assert any("groups[0]" in e and "members" in e for e in report.errors)

    def test_duplicate_group_id_rejected(self):
        member = {"id": "r", "h_index": 1}
        doc = {"groups": [
            {"id": "X", "members": [member]},
            {"id": "X", "members": [member]},
        ]}
        report = read_dataset(doc)
        assert not report.ok

    def test_inconsistent_declared_h_rejected(self):
        doc = {"groups": [{"id": "g", "members": [
            {"id": "r", "h_index": 3, "total_citations": 19, "paper_citations": [10, 8, 1]}
        ]}]}
        report = read_dataset(doc)
        assert not report.ok

    @pytest.mark.parametrize("where", ["groups[0]", "groups[0].members[0]"])
    def test_id_with_lone_surrogate_rejected_at_path(self, where):
        # a JSON escape can spell this str, which no output can encode
        doc = {"groups": [{"id": "g", "members": [{"id": "r", "h_index": 1}]}]}
        entry = doc["groups"][0] if where == "groups[0]" else doc["groups"][0]["members"][0]
        entry["id"] = "a\ud800"
        report = read_dataset(doc)
        assert report.errors == (f"{where}: missing or invalid 'id'",)

    @pytest.mark.parametrize("blank", [" ", " \u3000 "], ids=ascii)
    @pytest.mark.parametrize("where", ["groups[0]", "groups[0].members[0]"])
    def test_blank_id_rejected_at_path(self, where, blank):
        # the tabular readers refuse these ids as blank too
        doc = {"groups": [{"id": "g", "members": [{"id": "r", "h_index": 1}]}]}
        entry = doc["groups"][0] if where == "groups[0]" else doc["groups"][0]["members"][0]
        entry["id"] = blank
        assert read_dataset(doc).errors == (f"{where}: missing or invalid 'id'",)

    def test_id_with_surrounding_whitespace_kept(self):
        doc = {"groups": [{"id": " g ", "members": [{"id": " r", "h_index": 1}]}]}
        group = read_dataset(doc).dataset.groups[0]
        assert (group.id, group.members[0].id) == (" g ", " r")

    @pytest.mark.parametrize(
        "doc, error",
        [
            ([], "document: expected an object"),
            ({"groups": [], "extra": 1, "more": 2}, "document: unknown key(s) ['extra', 'more']"),
            ({"groups": {}}, "groups: expected a list"),
            ({"groups": [{"id": "g", "members": []}]}, "groups[0].members: expected a non-empty list"),
            ({"groups": [{"id": "g", "label": 3, "members": [{"id": "r", "h_index": 1}]}]},
             "groups[0].label: expected a string"),
            ({"groups": [{"id": "g", "members": [{"id": "r", "h_index": 1}, "r2"]}]},
             "groups[0].members[1]: expected an object"),
            # written back, a null label would become the group id
            (_one_member_doc(group={"label": None}), "groups[0].label: expected a string"),
            (_one_member_doc(group={"quality_tag": None}), "groups[0].quality_tag: expected a string"),
            (_one_member_doc(member={"total_citations": None}),
             "groups[0].members[0].total_citations: expected an integer in [0, 10**50]"),
            (_one_member_doc(member={"paper_citations": None}),
             "groups[0].members[0].paper_citations: expected a list of integers in [0, 10**50]"),
        ],
        ids=["not-object", "unknown-keys", "groups-not-list", "no-members", "label", "member",
             "null-label", "null-quality_tag", "null-total_citations", "null-paper_citations"],
    )
    def test_schema_refusals(self, doc, error):
        assert read_dataset(doc).errors == (error,)

    def test_boolean_not_accepted_as_integer(self):
        doc = {"groups": [{"id": "g", "members": [{"id": "r", "h_index": True}]}]}
        assert not read_dataset(doc).ok

    def test_int_subclass_counts_are_stored_as_plain_ints(self):
        class Count(int):
            pass

        member = {"id": "r", "h_index": Count(2), "total_citations": Count(9),
                  "paper_citations": [Count(5), 4, Count(0)]}
        report = read_dataset({"groups": [{"id": "g", "members": [member]}]})
        (profile,) = report.dataset.groups[0].members
        assert profile == ResearcherProfile("r", 2, 9, (5, 4, 0))
        counts = [profile.h_index, profile.total_citations, *profile.paper_citations]
        assert [type(c) for c in counts] == [int] * 5
        member["paper_citations"] = [Count(1), Count(10**50 + 1)]
        assert read_dataset({"groups": [{"id": "g", "members": [member]}]}).errors == (
            "groups[0].members[0].paper_citations: expected a list of integers in [0, 10**50]",
        )


@pytest.mark.parametrize(
    "doc, ok",
    [
        (_one_member_doc(), True),
        (_one_member_doc(group={"label": None}), False),
        (_one_member_doc(group={"quality_tag": None}), False),
        (_one_member_doc(member={"total_citations": None}), False),
        (_one_member_doc(member={"paper_citations": None}), False),
        (_one_member_doc(member={"h_index": 10**50}), True),
        (_one_member_doc(member={"h_index": 10**50 + 1}), False),
        (_one_member_doc(member={"total_citations": 10**50}), True),
        (_one_member_doc(member={"total_citations": 10**50 + 1}), False),
        (_one_member_doc(member={"total_citations": 10**50, "paper_citations": [10**50]}), True),
        (_one_member_doc(member={"total_citations": 10**50, "paper_citations": [10**50 + 1]}), False),
        (_one_member_doc(member={"h_index": True}), False),
        (_one_member_doc(member={"total_citations": True}), False),
        (_one_member_doc(member={"paper_citations": [True]}), False),
        *(
            (_one_member_doc(**{where: {"id": text}}), ok)
            for where in ("group", "member")
            for text, ok in ((" ", False), ("a\n", False), ("a\u0085b", False), ("a b", True))
        ),
    ],
    ids=[
        "valid", "null-label", "null-quality_tag", "null-total_citations", "null-paper_citations",
        "h_index-10**50", "h_index-10**50+1", "total-10**50", "total-10**50+1",
        "paper-10**50", "paper-10**50+1", "true-h_index", "true-total", "true-paper",
        *(f"{where}-id-{name}" for where in ("group", "member")
          for name in ("blank", "line-break", "NEL", "inner-space")),
    ],
)
def test_reader_agrees_with_the_schema(doc, ok):
    # ids holding a lone surrogate are refused by the reader only: JSON
    # Schema cannot tell a lone surrogate from a pair
    assert read_dataset(doc).ok == Draft202012Validator(DATASET_SCHEMA).is_valid(doc) == ok


class TestCountCeiling:
    def test_long_form_citations_and_their_sum(self):
        head = "group_id,researcher_id,paper_id,citations\n"
        assert read_long_form(rows(head + f"g,r,p1,{10**50}\n")).ok
        report = read_long_form(rows(head + f"g,r,p1,{10**50 + 1}\n"))
        assert report.errors == ("row 2: citations exceeds the ceiling 10**50",)
        report = read_long_form(rows(head + f"g,r,p1,{10**50}\ng,r,p2,1\n"))
        assert report.errors == ("'r' in 'g': total citations exceed the ceiling 10**50",)

    @pytest.mark.parametrize(
        "row, error",
        [
            (f"g,r,{10**50 + 1},", "row 2: h_index exceeds the ceiling 10**50"),
            (f"g,r,3,{10**50 + 1}", "row 2: total_citations exceeds the ceiling 10**50"),
            ("g,r," + "9" * 5000 + ",", "row 2: h_index exceeds the ceiling 10**50"),
            # str.isdigit() accepts superscripts, which int() refuses
            ("g,r,\u00b2,", "row 2: h_index '\u00b2' is not an integer"),
        ],
        ids=["h_index", "total_citations", "5000-digits", "superscript-digit"],
    )
    def test_summary_form(self, row, error):
        head = "group_id,researcher_id,h_index,total_citations\n"
        assert read_summary_form(rows(head + f"g,r,{10**50},{10**50}\n")).ok
        assert read_summary_form(rows(head + row + "\n")).errors == (error,)

    @pytest.mark.parametrize(
        "raw, value",
        [
            ("7", 7),
            (" 5 ", 5),
            ("007", 7),
            ("-0", 0),
            ("1_0", "row 2: h_index '1_0' is not an integer"),
            ("+3", "row 2: h_index '+3' is not an integer"),
            ("\u0663", "row 2: h_index '\u0663' is not an integer"),  # Arabic-Indic three
            ("-2", "row 2: negative h_index -2"),
            ("-1_0", "row 2: h_index '-1_0' is not an integer"),
            ("--2", "row 2: h_index '--2' is not an integer"),
            ("-", "row 2: h_index '-' is not an integer"),
            ("-" + "9" * 5000, "row 2: h_index '-" + "9" * 5000 + "' is not an integer"),
        ],
        ids=["plain", "spaces", "leading-zeros", "minus-zero", "underscore", "plus",
             "arabic-indic", "negative", "negative-underscore", "double-minus", "minus-only",
             "negative-5000-digits"],
    )
    def test_count_syntax(self, raw, value):
        # only ASCII digits make a count; whitespace around a field is ignored
        summary = read_summary_form(
            rows(f"group_id,researcher_id,h_index,total_citations\ng,r,{raw},\n")
        )
        long = read_long_form(rows(f"group_id\tresearcher_id\tpaper_id\tcitations\ng\tr\tp\t{raw}\n"))
        if isinstance(value, int):
            assert summary.dataset.groups[0].members[0].h_index == value
            assert long.dataset.groups[0].members[0].paper_citations == (value,)
        else:
            assert summary.errors == (value,)
            assert long.errors == (value.replace("h_index", "citations"),)

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("007", 7),
            (" 7 ", 7),
            ("+3", "{} '+3' is not an integer"),
            ("1_0", "{} '1_0' is not an integer"),
            ("1.5", "{} '1.5' is not an integer"),
            ("\u0663", "{} '\u0663' is not an integer"),  # Arabic-Indic three
            ("-2", "negative {} -2"),
            ("-0", 0),
            ("", "{} '' is not an integer"),
            ("9" * 50, 10**50 - 1),
            ("9" * 51, "{} exceeds the ceiling 10**50"),
            (str(10**50), 10**50),
            (str(10**50 + 1), "{} exceeds the ceiling 10**50"),
            ("9" * 5000, "{} exceeds the ceiling 10**50"),
        ],
        ids=["leading-zeros", "spaces", "plus", "underscore", "decimal-point", "arabic-indic",
             "negative", "minus-zero", "blank", "50-nines", "51-nines", "ceiling",
             "past-ceiling", "5000-digits"],
    )
    @pytest.mark.parametrize("column", ["h_index", "total_citations", "citations"])
    def test_inline_read_agrees_with_parse_count(self, raw, expected, column):
        # a field of few plain digits is read inline, any other by _parse_count;
        # both must give the same count, or refuse the row with the same message
        if column == "citations":
            report = read_long_form(rows(f"group_id,researcher_id,paper_id,citations\ng,r,p,{raw}\n"))
        else:
            row = f"g,r,{raw},{10**50}" if column == "h_index" else f"g,r,0,{raw}"
            report = read_summary_form(rows(f"group_id,researcher_id,h_index,total_citations\n{row}\n"))
        if column == "total_citations" and raw == "":  # kept, with a warning
            assert report.warnings == (
                "row 2: 'r' has no total_citations; "
                "citation-distribution analyses will exclude this member",
            )
            expected = None
        if isinstance(expected, str):
            assert report.errors == (f"row 2: {expected.format(column)}",)
            return
        member = report.dataset.groups[0].members[0]
        value = member.paper_citations[0] if column == "citations" else getattr(member, column)
        assert (value, type(value)) == (expected, type(expected))

    @pytest.mark.parametrize(
        "member, key",
        [
            ({"h_index": 10**50 + 1}, "h_index"),
            ({"h_index": 1, "total_citations": 10**50 + 1}, "total_citations"),
            ({"h_index": 1, "paper_citations": [10**50 + 1]}, "paper_citations"),
        ],
    )
    def test_json_document(self, member, key):
        doc = {"groups": [{"id": "g", "members": [{"id": "r", **member}]}]}
        report = read_dataset(doc)
        assert not report.ok
        assert report.errors[0].startswith(f"groups[0].members[0].{key}:")
        assert "10**50" in report.errors[0]


class TestMalformedInput:
    """Input that trips the parsers themselves is reported, not raised."""

    def _field_limit_error(self, row: int) -> str:
        return f"row {row}: field larger than field limit ({csv.field_size_limit()})"

    def test_summary_field_past_csv_limit(self):
        head = "group_id,researcher_id,h_index,total_citations\n"
        big = "1" * (csv.field_size_limit() + 1)
        report = read_summary_form(rows(head + f"g,r,{big},5\n"))
        assert report.errors == (self._field_limit_error(2),)

    def test_long_form_field_past_csv_limit(self):
        head = "group_id,researcher_id,paper_id,citations\n"
        big = "1" * (csv.field_size_limit() + 1)
        report = read_long_form(rows(head + f"g,r,p1,3\ng,r,p2,{big}\n"))
        assert report.errors == (self._field_limit_error(3),)

    def test_header_field_past_csv_limit(self):
        big = "x" * (csv.field_size_limit() + 1)
        report = read_summary_form(rows(f"group_id,researcher_id,h_index,{big}\ng,r,1,5\n"))
        assert report.errors == (self._field_limit_error(1),)

    @pytest.mark.parametrize("opened", [False, True], ids=["path", "open-file"])
    @pytest.mark.parametrize("bad_row", [2, 1000])
    @pytest.mark.parametrize(
        "header, row, reader",
        [
            ("group_id,researcher_id,paper_id,citations", "g,r{i},p{i},{i}", read_long_form),
            ("group_id,researcher_id,h_index,total_citations", "g,r{i},1,{i}", read_summary_form),
        ],
        ids=["long", "summary"],
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, header, row, reader, bad_row, opened):
        lines = [header.encode()] + [row.format(i=i).encode() for i in range(1, 1200)]
        lines[bad_row - 1] = b"\xff" + lines[bad_row - 1]
        data = b"\n".join(lines) + b"\n"
        if bad_row == 1000:  # past the decoder's first chunk, so found mid-parse
            assert data.index(b"\xff") > 8192
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        if opened:
            with open(path, encoding="utf-8", newline="") as fh:
                reports = [reader(fh)]
        else:
            reports = [reader(path), read_dataset_file(path)]
        for report in reports:
            assert not report.ok
            # no row number or position: the decoder reads ahead in chunks
            assert report.errors == ("not UTF-8 text: byte 0xff: invalid start byte",)

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"groups": ' + "[" * 200_000, encoding="utf-8")
        report = read_dataset_file(path)
        assert not report.ok
        assert len(report.errors) == 1 and report.errors[0].startswith("invalid JSON: ")
        assert "recursion" in report.errors[0]


class TestRowLines:
    """A row is named by the file line its record ends on; the header is line 1."""

    SUMMARY = "group_id,researcher_id,h_index,total_citations"
    LONG = "group_id,researcher_id,paper_id,citations"

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("opened", [False, True], ids=["path", "string"])
    def test_summary_form_after_a_quoted_line_break(self, tmp_path, eol, opened):
        text = eol.join([
            self.SUMMARY,
            "g,r0,x,5",  # line 2
            'g,r1,3,"1' + eol + '0"',  # lines 3-4
            "g,r2,y,5",  # line 5
            'g,r3,4,"6' + eol + '"',  # lines 6-7
            "g,r3,1,",  # line 8
        ]) + eol
        source = _source(tmp_path, text, opened)
        report = read_summary_form(source)
        assert report.errors == (
            "row 2: h_index 'x' is not an integer",
            f"row 4: total_citations {'1' + eol + '0'!r} is not an integer",
            "row 5: h_index 'y' is not an integer",
            "row 8: duplicate researcher 'r3' in group 'g'",
        )
        # the total "6" + eol is stripped to 6, so the record on lines 6-7 is accepted
        assert report.warnings == ("row 8: 'r3' has no total_citations; "
                                   "citation-distribution analyses will exclude this member",)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("opened", [False, True], ids=["path", "string"])
    def test_long_form_after_a_quoted_line_break(self, tmp_path, eol, opened):
        text = eol.join([
            self.LONG,
            "g,r,p1,-1",  # line 2
            'g,r,"p' + eol + '2",z',  # lines 3-4
            "g,r,p3,q",  # line 5
            'g,r,"p' + eol + eol + '4",1',  # lines 6-8
            "g,r,p5",  # line 9
        ]) + eol
        report = read_long_form(_source(tmp_path, text, opened))
        assert report.errors == (
            "row 2: negative citations -1",
            "row 4: citations 'z' is not an integer",
            "row 5: citations 'q' is not an integer",
            "row 9: expected 4 fields, got 3",
        )

    def test_clean_multiline_record_accepted(self):
        report = read_long_form(rows(self.LONG + '\ng,r,"p\n1",3\ng,r,p2,4\n'))
        assert report.dataset.groups[0].members[0].paper_citations == (3, 4)

    @pytest.mark.parametrize(
        "lines, row",
        [
            (['g,r,1,"2', '"', "g,r2,{big},5"], 4),  # after a record on lines 2-3
            (['g,r,1,"2', '{big}"'], 3),  # the record's second line
            (["g,r,1,2", "g,r2,{big},5", "g,r3,1,1"], 3),
        ],
        ids=["after", "inside", "single-line"],
    )
    def test_csv_error_names_the_line_the_reader_stopped_on(self, lines, row):
        big = "1" * (csv.field_size_limit() + 1)
        text = "\n".join([self.SUMMARY] + [line.format(big=big) for line in lines]) + "\n"
        report = read_summary_form(rows(text))
        assert report.errors == (f"row {row}: field larger than field limit "
                                 f"({csv.field_size_limit()})",)

    def test_unquoted_carriage_return_is_a_csv_error(self):
        # io.StringIO does not split lines at a lone "\r"; the csv reader refuses it
        report = read_summary_form(rows(self.SUMMARY + "\ng,r1,1,1\ng,r\r2,1,1\n"))
        # the rest of the message differs between Python versions
        (error,) = report.errors
        assert error.startswith("row 3: new-line character seen in unquoted field - ")

    @pytest.mark.parametrize("reader", [read_long_form, read_summary_form, read_dataset_file])
    def test_header_only(self, tmp_path, reader):
        header = self.LONG if reader is read_long_form else self.SUMMARY
        path = tmp_path / "header.csv"
        for text in (header, header + "\n"):
            path.write_text(text, encoding="utf-8")
            assert reader(path).errors == ("no data rows",)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        assert read_long_form(path).errors == ("no rows",)
        assert read_summary_form(path).errors == ("no rows",)
        # no header names a form, so the file reader cannot pick a reader
        assert read_dataset_file(path).errors == (
            "unrecognized header; expected group_id,researcher_id,paper_id,citations "
            "or group_id,researcher_id,h_index,total_citations",
        )


def _source(tmp_path, text: str, opened: bool):
    """``text`` as a path to a file holding it, or as the string lines of an open file."""
    if opened:
        return io.StringIO(text, newline="")
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


class TestFileDispatch:
    def test_json_file(self, tmp_path, rng):
        dataset = random_dataset(rng)
        path = tmp_path / "data.json"
        path.write_text(json.dumps(write_dataset(dataset)), encoding="utf-8")
        report = read_dataset_file(path)
        assert report.ok
        assert report.dataset == dataset

    def test_json_file_with_utf8_bom(self, tmp_path, rng):
        dataset = random_dataset(rng)
        text = json.dumps(write_dataset(dataset))
        plain = tmp_path / "plain.json"
        plain.write_text(text, encoding="utf-8")
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        report = read_dataset_file(bom)
        assert report.ok, report.errors
        assert report.dataset == read_dataset_file(plain).dataset == dataset

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        report = read_dataset_file(path)
        assert not report.ok
        assert any("invalid JSON" in e for e in report.errors)

    def test_header_sniffing(self, tmp_path):
        long = tmp_path / "long.csv"
        long.write_text(
            "group_id,researcher_id,paper_id,citations\ng,r,p,4\n", encoding="utf-8"
        )
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "group_id,researcher_id,h_index,total_citations\ng,r,2,9\n", encoding="utf-8"
        )
        assert read_dataset_file(long).dataset.groups[0].members[0].paper_citations == (4,)
        assert read_dataset_file(summary).dataset.groups[0].members[0].paper_citations is None

    @pytest.mark.parametrize(
        "text, reader, papers",
        [
            ("group_id,researcher_id,paper_id,citations\ng,r,p,4\n", read_long_form, (4,)),
            ("group_id,researcher_id,h_index,total_citations\ng,r,2,9\n", read_summary_form, None),
        ],
        ids=["long", "summary"],
    )
    def test_utf8_bom_header(self, tmp_path, text, reader, papers):
        # spreadsheet exports often start the file with a UTF-8 byte order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        for report in (read_dataset_file(path), reader(path)):
            assert report.ok, report.errors
            assert report.dataset.groups[0].members[0].paper_citations == papers

    def test_unrecognized_header(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        report = read_dataset_file(path)
        assert not report.ok
        assert any("unrecognized header" in e for e in report.errors)

    def test_near_miss_header_gets_the_readers_message(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(
            "group_id,researcher_id,h_index,total_citations,extra\ng,r,2,9,x\n", encoding="utf-8"
        )
        assert read_dataset_file(path).errors == (
            "row 1: unknown column(s) ['extra']; expected "
            "['group_id', 'researcher_id', 'h_index', 'total_citations']",
        )
