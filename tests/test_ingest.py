"""Tabular and JSON ingest: schemas, row errors, round trips."""

import csv
import io
import json

import pytest

from alphaindex.ingest import (
    read_dataset,
    read_dataset_file,
    read_long_form,
    read_summary_form,
    write_dataset,
)
from alphaindex.metrics import h_index
from alphaindex.model import validate

from conftest import random_dataset


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

    def test_boolean_not_accepted_as_integer(self):
        doc = {"groups": [{"id": "g", "members": [{"id": "r", "h_index": True}]}]}
        assert not read_dataset(doc).ok


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

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"groups": ' + "[" * 200_000, encoding="utf-8")
        report = read_dataset_file(path)
        assert not report.ok
        assert len(report.errors) == 1 and report.errors[0].startswith("invalid JSON: ")
        assert "recursion" in report.errors[0]


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
