"""Domain model construction rules and dataset validation."""

import copy
import pickle

import numpy as np
import pytest

from alphaindex.model import Dataset, Group, ResearcherProfile, validate
from alphaindex.synth import synth_group

from conftest import random_dataset


def make_member(rid="r1", h=2, total=13, papers=(10, 3)):
    return ResearcherProfile(
        id=rid, h_index=h, total_citations=total, paper_citations=papers
    )


class TestConstruction:
    def test_profile_normalizes_papers_to_tuple(self):
        m = ResearcherProfile(id="r", h_index=2, total_citations=13, paper_citations=[10, 3])
        assert m.paper_citations == (10, 3)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ResearcherProfile(id="r", h_index=-1)
        with pytest.raises(ValueError):
            ResearcherProfile(id="r", h_index=1, total_citations=-5)
        with pytest.raises(ValueError):
            ResearcherProfile(id="r", h_index=1, paper_citations=(3, -1))

    def test_counts_above_ceiling_rejected(self):
        ResearcherProfile(id="r", h_index=1, total_citations=10**50, paper_citations=(10**50,))
        for fields in (
            {"h_index": 10**50 + 1},
            {"h_index": 1, "total_citations": 10**50 + 1},
            {"h_index": 1, "paper_citations": (10**50 + 1,)},
        ):
            with pytest.raises(ValueError, match="10\\*\\*50"):
                ResearcherProfile(id="r", **fields)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"h_index": 2.5}, "h_index"),
            ({"h_index": 2.0}, "h_index"),
            ({"h_index": "2"}, "h_index"),
            ({"h_index": 2, "total_citations": 4.2}, "total_citations"),
            ({"h_index": 2, "total_citations": "4"}, "total_citations"),
            ({"h_index": 2, "paper_citations": (3.7, 0.9)}, "paper_citations"),
            ({"h_index": 2, "paper_citations": (3, "1")}, "paper_citations"),
            ({"h_index": np.float64(2)}, "h_index"),
        ],
    )
    def test_non_integer_counts_rejected_by_name(self, fields, name):
        # int() would truncate 3.7 to 3 and parse "2"
        with pytest.raises(TypeError, match=f"^r: {name} must be"):
            ResearcherProfile(id="r", **fields)

    def test_numpy_integers_stored_as_int(self):
        m = ResearcherProfile(
            id="r",
            h_index=np.int64(2),
            total_citations=np.uint32(13),
            paper_citations=np.array([10, 3], dtype=np.int16),
        )
        assert m == ResearcherProfile(id="r", h_index=2, total_citations=13, paper_citations=(10, 3))
        counts = (m.h_index, m.total_citations, *m.paper_citations)
        assert all(type(c) is int for c in counts)

    def test_blank_ids_rejected(self):
        with pytest.raises(ValueError):
            ResearcherProfile(id="", h_index=1)
        with pytest.raises(ValueError):
            Group(id="", members=(make_member(),))

    def test_empty_group_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Group(id="g", members=())
        with pytest.raises(ValueError):
            synth_group("g", [])

    def test_label_defaults_to_id(self):
        g = Group(id="g", members=(make_member(),))
        assert g.label == "g"
        g2 = Group(id="g", members=(make_member(),), label="Display")
        assert g2.label == "Display"


class TestRecord:
    """A profile is a named tuple that no route builds without the checks."""

    def test_replace_runs_the_checks(self):
        with pytest.raises(ValueError, match="h_index must be non-negative"):
            make_member()._replace(h_index=-1)
        assert make_member()._replace(h_index=1) == make_member(h=1)

    def test_make_runs_the_checks(self):
        with pytest.raises(TypeError, match="^r: h_index must be an integer, got 2.5$"):
            ResearcherProfile._make(["r", 2.5, None, None])
        assert ResearcherProfile._make(["r", 2, None, None]) == ResearcherProfile(id="r", h_index=2)

    def test_fields_cannot_be_assigned(self):
        m = make_member()
        with pytest.raises(AttributeError):
            m.h_index = 5
        with pytest.raises(AttributeError):
            m.extra = 1
        assert m.h_index == 2

    def test_pickle_and_copy_round_trip(self):
        m = make_member()
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert type(twin) is ResearcherProfile and twin == m

    def test_equal_profiles_hash_equal(self):
        a, b = make_member(papers=[10, 3]), make_member(papers=(10, 3))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, make_member(rid="r2")}) == 2

    def test_a_tuple_of_its_fields(self):
        m = make_member()
        assert m == ("r1", 2, 13, (10, 3))
        rid, h, total, papers = m
        assert m._asdict() == dict(zip(ResearcherProfile._fields, (rid, h, total, papers)))


class TestValidate:
    def test_consistent_dataset_is_clean(self):
        ds = Dataset((Group(id="g", members=(make_member(),)),))
        assert validate(ds) == []

    def test_wrong_declared_h_is_one_violation(self):
        # true h of [10, 8, 1] is 2, not 3
        bad = ResearcherProfile(
            id="r1", h_index=3, total_citations=19, paper_citations=(10, 8, 1)
        )
        violations = validate(Dataset((Group(id="g", members=(bad,)),)))
        assert len(violations) == 1
        assert violations[0].member_id == "r1"
        assert "2" in violations[0].reason

    def test_wrong_total_reported(self):
        bad = ResearcherProfile(
            id="r1", h_index=2, total_citations=99, paper_citations=(10, 3)
        )
        violations = validate(Dataset((Group(id="g", members=(bad,)),)))
        assert len(violations) == 1
        assert "13" in violations[0].reason

    def test_h_exceeding_total_reported(self):
        bad = ResearcherProfile(id="r1", h_index=12, total_citations=5)
        violations = validate(Dataset((Group(id="g", members=(bad,)),)))
        assert len(violations) == 1

    def test_duplicate_group_ids(self):
        g1 = Group(id="X", members=(make_member("a"),))
        g2 = Group(id="X", members=(make_member("b"),))
        violations = validate(Dataset((g1, g2)))
        assert len(violations) == 1
        assert violations[0].group_id == "X"

    def test_duplicate_member_ids(self):
        g = Group(id="g", members=(make_member("dup"), make_member("dup")))
        violations = validate(Dataset((g,)))
        assert len(violations) == 1
        assert violations[0].member_id == "dup"

    def test_order_insensitive(self, rng):
        # permuting members and groups yields the same violation multiset
        for _ in range(20):
            ds = random_dataset(rng)
            base = sorted(str(v) for v in validate(ds))
            groups = list(ds.groups)
            rng.shuffle(groups)
            shuffled = []
            for g in groups:
                members = list(g.members)
                rng.shuffle(members)
                shuffled.append(
                    Group(id=g.id, members=tuple(members), label=g.label, quality_tag=g.quality_tag)
                )
            assert sorted(str(v) for v in validate(Dataset(tuple(shuffled)))) == base

    def test_idempotent(self, rng):
        ds = random_dataset(rng)
        first = [str(v) for v in validate(ds)]
        second = [str(v) for v in validate(ds)]
        assert first == second
