"""Shapiro-Wilk test against frozen reference values and its invariances.

The two 20-point fixtures were generated once from a seeded generator; the
expected W and p were frozen from an independent reference statistical
implementation.
"""

import numpy as np
import pytest

from alphaindex.distribution import _sw_weights, shapiro_wilk
from alphaindex.errors import SampleSizeError, ZeroVarianceError

NORMAL_20 = (
    5.301441, 4.997845, 3.106865, 2.19696, 3.954026, 6.245879, 6.467092,
    5.744112, 4.78916, 6.920059, 6.295828, 3.82546, 2.39466, 3.580233,
    3.485968, 5.368765, 0.971503, 3.874673, 7.041078, 2.635518,
)
NORMAL_20_W = 0.9652682077824565
NORMAL_20_P = 0.6534855800859534

HEAVY_20 = (
    18.002784, 21.877762, 6.724932, 5.404219, -1.83001, 1.669526, 4.422708,
    2.655804, -1.029066, 0.11581, -0.764101, 4.20266, -1.395103, 0.794411,
    -9.771756, 11.19949, 0.526168, 7.782577, -1.465724, -1.929612,
)
HEAVY_20_W = 0.8937574473988342
HEAVY_20_P = 0.03154719092785289


def test_three_point_linear_sample_is_perfectly_normal():
    report = shapiro_wilk([1.0, 2.0, 3.0])
    assert report.statistic == pytest.approx(1.0, abs=1e-9)
    assert report.p_value == pytest.approx(1.0, abs=1e-6)
    assert report.normal_at_5pct


def test_statistic_past_one_is_clamped():
    # a sample proportional to the weights reads W = 1 + 2**-52 in floats;
    # it is reported as 1, with p = 1 rather than a log of 1 - W <= 0
    report = shapiro_wilk(_sw_weights(59) * 1000 + 10)
    assert report.statistic == 1.0
    assert report.p_value == 1.0


def test_normal_fixture_matches_reference():
    report = shapiro_wilk(NORMAL_20)
    assert report.statistic == pytest.approx(NORMAL_20_W, abs=1e-3)
    assert report.p_value == pytest.approx(NORMAL_20_P, abs=1e-3)
    assert report.normal_at_5pct


def test_heavy_tailed_fixture_rejects_at_5pct():
    report = shapiro_wilk(HEAVY_20)
    assert report.statistic == pytest.approx(HEAVY_20_W, abs=1e-3)
    assert report.p_value == pytest.approx(HEAVY_20_P, abs=1e-3)
    assert report.p_value < 0.05
    assert not report.normal_at_5pct


def test_report_carries_shape_statistics():
    from alphaindex.distribution import kurtosis, skewness

    report = shapiro_wilk(NORMAL_20)
    assert report.kurtosis == pytest.approx(kurtosis(NORMAL_20))
    assert report.skewness == pytest.approx(skewness(NORMAL_20))


def test_affine_invariance(rng):
    x = rng.standard_normal(40)
    base = shapiro_wilk(x)
    moved = shapiro_wilk(3.7 * x - 11.0)
    assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)


def test_verdict_flag_tracks_p_value(rng):
    for _ in range(10):
        x = rng.standard_normal(25) if rng.random() < 0.5 else rng.standard_cauchy(25)
        report = shapiro_wilk(x)
        assert report.normal_at_5pct == (report.p_value > 0.05)
        assert 0.0 <= report.p_value <= 1.0
        assert 0.0 < report.statistic <= 1.0


def test_sample_size_guards():
    with pytest.raises(SampleSizeError):
        shapiro_wilk([1.0, 2.0])
    with pytest.raises(SampleSizeError):
        shapiro_wilk(list(range(5001)))


def test_constant_sample_rejected():
    with pytest.raises(ZeroVarianceError):
        shapiro_wilk([4.0, 4.0, 4.0, 4.0])


def test_large_sample_support(rng):
    # committee-scale and near the upper bound
    for n in (207, 4999):
        report = shapiro_wilk(rng.standard_normal(n))
        assert report.normal_at_5pct


ORACLE_SIZES = (3, 4, 5, 6, 7, 11, 12, 20, 207, 1000, 5000)
ORACLE_SAMPLES = {
    "normal": lambda rng, n: rng.normal(5.0, 2.0, n),
    "gamma": lambda rng, n: rng.gamma(3.0, 7.0, n),
    "rounded-gamma": lambda rng, n: np.rint(rng.gamma(3.0, 7.0, n)),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_SAMPLES))
def test_matches_scipy_stats(kind):
    # scipy.stats is imported here only: importing it from the package would
    # add about half a second to every command's start-up
    from scipy import stats

    for n in ORACLE_SIZES:
        xs = ORACLE_SAMPLES[kind](np.random.default_rng(1000 + n), n)
        report = shapiro_wilk(xs)
        ref = stats.shapiro(xs)
        assert abs(report.statistic - ref.statistic) < 1e-8, n
        assert abs(report.p_value - ref.pvalue) < 1e-6, n
        assert abs(report.kurtosis - stats.kurtosis(xs, bias=True)) < 1e-12, n
        assert abs(report.skewness - stats.skew(xs, bias=True)) < 1e-12, n
