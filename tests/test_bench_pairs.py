"""The summary step of ``tools/bench_pairs.py``, on fixed numbers."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

PARENT = [10.0, 12.0, 11.0, 13.0, 14.0, 10.5, 12.5, 11.5, 13.5, 12.0]
# 3 lower in nine pairs, 0.5 higher in the last
CHANGE = [7.0, 9.0, 8.0, 10.0, 11.0, 7.5, 9.5, 8.5, 10.5, 12.5]


@pytest.fixture
def summarize(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    return bench_pairs.summarize


def test_quartiles_wins_and_verdicts(summarize):
    s = summarize(PARENT, CHANGE, "lower", 0.25)
    # inclusive quartiles of 10, 10.5, 11, 11.5, 12, 12, 12.5, 13, 13.5, 14
    assert s["parent"] == {"q1": 11.125, "median": 12.0, "q3": 12.875}
    assert s["change"] == {"q1": 8.125, "median": 9.25, "q3": 10.375}
    assert s["change_better_in_pairs"] == "9/10"
    assert s["relative_change"] == pytest.approx(-2.75 / 12)
    # 9 of 10 pairs, and the median gap 2.75 beats the parent's IQR 1.75
    assert s["gain"] is True and s["bound_verdict"] == "within"
    assert s["runs"] == {"parent": PARENT, "change": CHANGE}


def test_higher_is_better_flips_the_verdicts(summarize):
    s = summarize(PARENT, CHANGE, "higher", 0.25)
    assert s["change_better_in_pairs"] == "1/10"
    assert s["gain"] is False
    assert s["bound_verdict"] == "within"  # 22.9% worse, inside 25%
    assert summarize(PARENT, CHANGE, "higher", 0.2)["bound_verdict"] == "beyond"


def test_ties_count_for_neither_side(summarize):
    s = summarize(PARENT, PARENT, "lower", 0.25)
    assert s["change_better_in_pairs"] == "0/10"
    assert s["gain"] is False and s["bound_verdict"] == "within"


def test_eight_wins_in_ten_is_no_gain(summarize):
    s = summarize(PARENT, [*CHANGE[:8], 14.0, 12.5], "lower", 0.25)
    assert s["change_better_in_pairs"] == "8/10"
    assert s["gain"] is False


def test_gap_inside_the_parent_spread_is_no_gain(summarize):
    change = [p - 1.0 for p in PARENT]  # wins every pair by less than the IQR 1.75
    s = summarize(PARENT, change, "lower", 0.25)
    assert s["change_better_in_pairs"] == "10/10"
    assert s["gain"] is False


def test_parent_spread_wider_than_the_bound_is_unresolved(summarize):
    # the parent's IQR 1.75 is 14.6% of its median 12: a 10% bound cannot be checked
    worse = [p + 0.5 for p in PARENT]  # 4.2% worse, runs overlapping
    assert summarize(PARENT, worse, "lower", 0.10)["bound_verdict"] == "unresolved"
    assert summarize(PARENT, worse, "lower", 0.15)["bound_verdict"] == "within"
    assert summarize(PARENT, worse, "higher", 0.10)["bound_verdict"] == "unresolved"


@pytest.mark.parametrize(
    "shift, better, verdict",
    [(-5.0, "lower", "within"), (5.0, "lower", "beyond"), (5.0, "higher", "within")],
)
def test_runs_that_do_not_overlap_resolve_a_wide_spread(summarize, shift, better, verdict):
    # every change run lies beyond every parent run (range 10-14), so the medians decide
    change = [p + shift for p in PARENT]
    assert summarize(PARENT, change, better, 0.10)["bound_verdict"] == verdict


@pytest.mark.parametrize(
    "parent, change, better",
    [(PARENT, CHANGE[:9], "lower"), ([1.0], [2.0], "lower"), (PARENT, CHANGE, "faster")],
)
def test_bad_input_refused(summarize, parent, change, better):
    with pytest.raises(ValueError):
        summarize(parent, change, better, 0.25)


@pytest.fixture
def failed_more(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    return bench_pairs.failed_more


@pytest.mark.parametrize(
    "parent, change, more",
    [
        ((0, 500), (0, 480), False),
        ((0, 500), (1, 480), True),
        ((2, 500), (1, 250), False),  # the same share, 0.4%
        ((2, 500), (1, 240), True),  # fewer failures, but from fewer attempts
        ((5, 500), (4, 500), False),
        ((0, 0), (0, 0), False),
        ((0, 0), (1, 10), True),
    ],
)
def test_failed_more_compares_shares_not_counts(failed_more, parent, change, more):
    assert failed_more(parent, change) is more
