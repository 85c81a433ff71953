"""Relative h-group estimation and alpha-weight ranking."""

import json
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from alphaindex.errors import DegenerateGroupError, SampleTooLargeError, TooFewGroupsError
from alphaindex.metrics import h_group, h_index
from alphaindex.ranking import (
    GINI_FLOOR,
    RankingRow,
    rank,
    rank_from_precomputed,
    relative_h_group,
)
from alphaindex.synth import synth_group

from conftest import random_group

# published summary rows: (group, relative h-group, gini, alpha weight)
PUBLISHED_ROWS = [
    ("DOCENG", 7.61, 0.303, 0.14108),
    ("CIKM", 9.43, 0.377, 0.14051),
    ("CAISE", 8.71, 0.367, 0.13333),
    ("HSDM", 8.93, 0.381, 0.13166),
    ("SEKE", 8.10, 0.462, 0.09849),
    ("ECDL", 6.95, 0.487, 0.08017),
    ("EASE", 6.00, 0.548, 0.06150),
]


def assert_rows_exact(rows, expected):
    """Report rows equal ``expected`` value for value, keys in field order."""
    assert rows == expected
    order = [f.name for f in fields(RankingRow)]
    assert [list(row) for row in rows] == [order] * len(expected)
    assert all(type(row[k]) is type(want[k]) for row, want in zip(rows, expected) for k in order)


class TestRelativeHGroup:
    def test_full_size_returns_absolute_for_any_seed(self):
        group = synth_group("g", [12, 7, 7, 3, 1])
        expected = float(h_group(group))
        for seed in (0, 1, 42, 2**63):
            for n_samples in (1, 10, 1000):
                assert relative_h_group(group, 5, n_samples, seed) == expected

    def test_equal_members_have_no_variance(self):
        group = synth_group("g", [5, 5, 5, 5])
        assert relative_h_group(group, 2, 1, 0) == 2.0
        assert relative_h_group(group, 2, 10_000, 123) == 2.0

    def test_converges_to_enumeration_mean(self):
        # exhaustive oracle over all C(4,2) = 6 pairs of [9, 1, 1, 1]
        hs = [9, 1, 1, 1]
        exact = np.mean([h_index(c) for c in combinations(hs, 2)])
        assert exact == 1.0  # every pair contains at most one member with h >= 2
        estimate = relative_h_group(synth_group("g", hs), 2, 100_000, 7)
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_sample_too_large(self):
        with pytest.raises(SampleTooLargeError):
            relative_h_group(synth_group("g", [1, 2]), 3, 10, 0)

    def test_never_exceeds_absolute_or_sample_size(self, rng):
        for _ in range(50):
            group = random_group(rng, max_n=25)
            size = int(rng.integers(1, len(group.members) + 1))
            rel = relative_h_group(group, size, 200, seed=5)
            assert rel <= h_group(group) + 1e-12
            assert rel <= size

    @pytest.mark.parametrize("param, value", [("seed", 2**64), ("seed", -1)])
    def test_stream_validation(self, param, value):
        with pytest.raises(ValueError, match=param):
            relative_h_group(synth_group("g", [4, 3, 2, 1]), 2, 100, **{param: value})

    @pytest.mark.parametrize(
        "param, args",
        [("sample_size", (3.0, 100, 1)), ("n_samples", (3, 100.5, 1)), ("seed", (3, 100, 1.5))],
    )
    def test_arguments_must_be_integers(self, param, args):
        group = synth_group("g", [5, 4, 3, 2, 1, 7, 8])
        with pytest.raises(TypeError, match=f"^{param} must be an integer"):
            relative_h_group(group, *args)

    def test_numpy_integer_arguments_taken(self):
        group = synth_group("g", [5, 4, 3, 2, 1, 7, 8])
        assert relative_h_group(group, np.int64(3), np.int64(100), np.uint64(1)) == \
            relative_h_group(group, 3, 100, 1)

    def test_n_samples_must_be_positive(self):
        for size in (2, 4):  # a subset, and the whole group
            with pytest.raises(ValueError) as exc:
                relative_h_group(synth_group("g", [4, 3, 2, 1]), size, 0, 0)
            assert str(exc.value) == "n_samples must be positive, got 0"

    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValueError) as exc:
            relative_h_group(synth_group("g", [4, 3, 2, 1]), 0, 100, 0)
        assert str(exc.value) == "sample_size must be positive, got 0"

    def test_stream_key_is_not_settable(self):
        # the stream is keyed by the group id, never by the caller
        with pytest.raises(TypeError, match="key"):
            relative_h_group(synth_group("g", [4, 3, 2, 1]), 2, 100, key=0)


class TestRank:
    def test_two_identical_groups_split_evenly(self):
        groups = [synth_group("a", [5, 3, 2]), synth_group("b", [5, 3, 2])]
        report = rank(groups, n_samples=500, seed=1)
        assert [r.alpha for r in report.rows] == [0.5, 0.5]
        assert [r.group_id for r in report.rows] == ["a", "b"]  # tie -> id order

    def test_requires_two_groups(self):
        with pytest.raises(TooFewGroupsError):
            rank([synth_group("a", [1, 2])])

    def test_degenerate_group_rejected_by_name(self):
        groups = [synth_group("ok", [3, 2]), synth_group("zeros", [0, 0])]
        with pytest.raises(DegenerateGroupError, match="zeros"):
            rank(groups)

    def test_reference_is_smallest_with_id_tiebreak(self):
        groups = [
            synth_group("bbb", [4, 4, 4]),
            synth_group("aaa", [5, 5, 5]),
            synth_group("large", [6] * 8),
        ]
        report = rank(groups, n_samples=50)
        assert report.reference_group_id == "aaa"
        assert report.reference_size == 3

    def test_dominant_group_ranks_first(self):
        # strictly larger relative h-group and strictly smaller gini
        groups = [
            synth_group("dominant", [9, 9, 9, 9, 8]),
            synth_group("middle", [7, 7, 5, 3, 2]),
            synth_group("weak", [9, 2, 1, 1, 1]),
        ]
        report = rank(groups, n_samples=2000, seed=3)
        assert report.rows[0].group_id == "dominant"

    def test_alpha_sums_to_one_and_rows_sorted(self, rng):
        groups = [
            synth_group(f"g{pos}", random_group(rng, max_n=20).h_values())
            for pos in range(5)
        ]
        report = rank(groups, n_samples=300, seed=11)
        alphas = [r.alpha for r in report.rows]
        assert sum(alphas) == pytest.approx(1.0, abs=1e-9)
        assert all(0 < a < 1 for a in alphas)
        assert alphas == sorted(alphas, reverse=True)
        assert [r.rank for r in report.rows] == list(range(1, len(groups) + 1))
        for row in report.rows:
            assert row.relative_h_group <= row.h_group + 1e-12

    def test_bit_identical_reports(self):
        groups = [synth_group("a", [8, 6, 5, 2]), synth_group("b", [9, 1, 1])]
        first = json.dumps(rank(groups, n_samples=2000, seed=77).as_dict(), sort_keys=True)
        second = json.dumps(rank(groups, n_samples=2000, seed=77).as_dict(), sort_keys=True)
        assert first == second

    def test_result_independent_of_group_order_values(self):
        groups = [synth_group("a", [5, 5, 5]), synth_group("b", [7, 7, 7])]
        fwd = rank(groups, n_samples=100, seed=5)
        rev = rank(groups[::-1], n_samples=100, seed=5)
        assert {(r.group_id, r.alpha) for r in fwd.rows} == \
            {(r.group_id, r.alpha) for r in rev.rows}

    def test_added_larger_group_leaves_other_estimates(self, rng):
        # a group's stream depends on the seed and its own id and members, so
        # a group that leaves the reference size as it is changes no estimate,
        # even when it comes first
        for trial in range(20):
            groups = [
                synth_group(f"g{pos}", rng.integers(1, 40, size=int(rng.integers(5, 30))))
                for pos in range(int(rng.integers(2, 6)))
            ]
            size = min(len(g.members) for g in groups)
            extra = synth_group("extra", rng.integers(1, 40, size=size + int(rng.integers(1, 20))))
            before = rank(groups, n_samples=300, seed=trial)
            after = rank([extra] + groups, n_samples=300, seed=trial)
            assert after.reference_size == before.reference_size
            estimates = {r.group_id: r.relative_h_group for r in after.rows}
            for row in before.rows:
                assert estimates[row.group_id] == row.relative_h_group

    @pytest.mark.parametrize("field, value", [("n_samples", 0), ("seed", -1), ("seed", 2**64)])
    def test_config_validation(self, field, value):
        groups = [synth_group("a", [3, 3]), synth_group("b", [4, 4, 4])]
        with pytest.raises(ValueError, match=field):
            rank(groups, **{field: value})

    @pytest.mark.parametrize(
        "field, value", [("n_samples", 100.9), ("n_samples", 0.5), ("seed", 1.5)]
    )
    def test_config_must_be_integers(self, field, value):
        groups = [synth_group("a", [3, 3]), synth_group("b", [4, 4, 4])]
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            rank(groups, **{field: value})

    def test_numpy_integer_config_reported_as_int(self):
        groups = [synth_group("a", [3, 3]), synth_group("b", [4, 4, 4])]
        report = rank(groups, n_samples=np.int64(10), seed=np.uint64(7)).as_dict()
        assert json.dumps(report) == json.dumps(rank(groups, n_samples=10, seed=7).as_dict())

    def test_duplicate_ids_refused(self):
        groups = [synth_group("a", [3, 3]), synth_group("b", [4, 4]), synth_group("a", [5, 1])]
        with pytest.raises(ValueError) as exc:
            rank(groups)
        assert str(exc.value) == "group ids must be unique for ranking"

    def test_gini_floor_reported(self):
        groups = [synth_group("flat", [4, 4, 4]), synth_group("mixed", [9, 3, 1])]
        report = rank(groups, n_samples=200, seed=2)
        assert report.floored_group_ids == ("flat",)
        assert report.as_dict()["provenance"]["gini_floor"] == GINI_FLOOR == 1e-3

    def test_report_rows_pinned(self):
        # "flat" is floored, and its row keeps its raw gini of 0
        groups = [synth_group("flat", [4, 4, 4]), synth_group("mixed", [9, 3, 1, 7, 2])]
        report = rank(groups, n_samples=200, seed=2)
        assert report.floored_group_ids == ("flat",)
        assert_rows_exact(report.as_dict()["rows"], [
            {"group_id": "flat", "gini": 0.0, "h_group": 3, "relative_h_group": 3.0,
             "alpha": 0.9981656725279854, "rank": 1},
            {"group_id": "mixed", "gini": 0.38181818181818183, "h_group": 3,
             "relative_h_group": 2.105, "alpha": 0.0018343274720147222, "rank": 2},
        ])

    def test_reference_keeps_its_h_group(self, rng):
        # the reference is sampled whole, so its estimate is exact and at
        # least 1, and the alpha weights of rank are always defined
        for trial in range(200):
            groups = [
                synth_group(f"g{pos}", random_group(rng, max_n=12, max_h=3).h_values())
                for pos in range(int(rng.integers(2, 5)))
            ]
            n_samples = (1, 7)[trial % 2]
            report = rank(groups, n_samples=n_samples, seed=trial)
            ref = next(r for r in report.rows if r.group_id == report.reference_group_id)
            assert ref.relative_h_group == ref.h_group >= 1


class TestRankFromPrecomputed:
    def test_published_ratio_reproduction(self):
        report = rank_from_precomputed([(g, rel, gv) for g, rel, gv, _ in PUBLISHED_ROWS])
        alpha = {r.group_id: r.alpha for r in report.rows}
        ratio = (alpha["DOCENG"] / alpha["CIKM"])
        assert ratio == pytest.approx(0.14108 / 0.14051, rel=0.005)

    def test_single_row_gets_full_weight(self):
        report = rank_from_precomputed([("only", 5.0, 0.4)])
        assert report.rows[0].alpha == 1.0

    def test_two_row_normalization(self):
        # scores 10/0.2 = 50 and 5/0.4 = 12.5 normalize to 0.8 / 0.2
        report = rank_from_precomputed([("hi", 10.0, 0.2), ("lo", 5.0, 0.4)])
        assert [r.alpha for r in report.rows] == pytest.approx([0.8, 0.2])

    def test_zero_gini_clamped_not_rejected(self):
        report = rank_from_precomputed([("flat", 4.0, 0.0), ("other", 4.0, 0.5)])
        assert report.floored_group_ids == ("flat",)
        assert report.rows[0].group_id == "flat"

    def test_common_scale_leaves_alphas_unchanged(self):
        rows = [(g, rel, gv) for g, rel, gv, _ in PUBLISHED_ROWS]
        base = rank_from_precomputed(rows)
        scaled = rank_from_precomputed([(g, rel * 3.5, gv) for g, rel, gv in rows])
        for a, b in zip(base.rows, scaled.rows):
            assert a.group_id == b.group_id
            assert a.alpha == pytest.approx(b.alpha, abs=1e-15)

    def test_precomputed_rows_have_no_absolute_column(self):
        report = rank_from_precomputed([("x", 2.0, 0.3), ("y", 1.0, 0.4)])
        assert all(r.h_group is None for r in report.rows)

    def test_report_rows_pinned(self):
        report = rank_from_precomputed([("x", 2.0, 0.3), ("y", 1.0, 0.4), ("flat", 4.0, 0.0)])
        assert_rows_exact(report.as_dict()["rows"], [
            {"group_id": "flat", "gini": 0.0, "h_group": None, "relative_h_group": 4.0,
             "alpha": 0.9977135730617336, "rank": 1},
            {"group_id": "x", "gini": 0.3, "h_group": None, "relative_h_group": 2.0,
             "alpha": 0.0016628559551028893, "rank": 2},
            {"group_id": "y", "gini": 0.4, "h_group": None, "relative_h_group": 1.0,
             "alpha": 0.0006235709831635835, "rank": 3},
        ])

    @pytest.mark.parametrize("rows, column", [
        ([("bad", float("nan"), 0.3)], "relative h-group"),
        ([("bad", float("inf"), 0.3)], "relative h-group"),
        ([("bad", -1.0, 0.3)], "relative h-group"),
        # each score is finite, their sum is not
        ([("big", 1e305, 0.001), ("bigger", 1e305, 0.001)], "relative h-group"),
        ([("bad", 4.0, float("nan"))], "gini"),
        ([("bad", 4.0, float("inf"))], "gini"),
        ([("bad", 4.0, float("-inf"))], "gini"),
    ])
    def test_values_that_give_no_weight_refused_by_column(self, rows, column):
        with pytest.raises(ValueError, match=f"{column} values must be finite"):
            rank_from_precomputed(rows + [("ok", 5.0, 0.4)])

    def test_duplicate_ids_refused(self):
        with pytest.raises(ValueError) as exc:
            rank_from_precomputed([("a", 4.0, 0.3), ("b", 5.0, 0.4), ("a", 6.0, 0.5)])
        assert str(exc.value) == "group ids must be unique for ranking"

    def test_no_rows_refused(self):
        with pytest.raises(TooFewGroupsError) as exc:
            rank_from_precomputed([])
        assert str(exc.value) == "no rows to rank"

    def test_all_zero_scores_refused(self):
        with pytest.raises(ValueError, match="all scores are zero"):
            rank_from_precomputed([("a", 0.0, 0.3), ("b", 0.0, 0.4)])


def test_convergence_rate_one_over_sqrt_samples():
    # standard deviation across seeds shrinks roughly 2x per 4x samples
    group = synth_group("conv", list(range(1, 31)))
    stds = []
    for n_samples in (100, 400, 1600):
        vals = [relative_h_group(group, 10, n_samples, seed) for seed in range(200)]
        stds.append(float(np.std(vals)))
    assert 1.6 <= stds[0] / stds[1] <= 2.5
    assert 1.6 <= stds[1] / stds[2] <= 2.5
