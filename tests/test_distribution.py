"""Distribution analyses: slope, shape fits, peak-shape fit, histograms."""

import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gennorm

from alphaindex import distribution
from alphaindex.distribution import (
    DEFAULT_BETA_GRID,
    GiddingsFit,
    Histogram,
    build_histogram,
    empirical_moment_ratio,
    fit_beta,
    fit_giddings,
    giddings_eval,
    kurtosis,
    power_law_slope,
    skewness,
    theoretical_moment_ratio,
)
from alphaindex.errors import (
    BinSpecError,
    FitDivergedError,
    InsufficientDataError,
    ZeroVarianceError,
)
from alphaindex.model import MAX_COUNT
from alphaindex.synth import StretchedExpParams, sample_stretched_exp

REFERENCE_PEAK = GiddingsFit(baseline=0.912, amplitude=1118.453, width=2.518, center=10.44)
# independent high-precision evaluation (40-digit arithmetic) at h == center
REFERENCE_PEAK_VALUE_AT_CENTER = 59.547442820128905


class TestPowerLawSlope:
    def test_exact_quadratic(self):
        pairs = [(h, h * h) for h in range(1, 21)]
        fit = power_law_slope(pairs)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.points_used == 20
        assert fit.points_dropped == 0

    def test_exact_cubic_with_prefactor(self):
        pairs = [(h, 7 * h**3) for h in range(1, 15)]
        fit = power_law_slope(pairs)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_zero_entries_dropped_and_counted(self):
        pairs = [(0, 10), (3, 0), (2, 4), (5, 25), (4, 16)]
        fit = power_law_slope(pairs)
        assert fit.points_used == 3
        assert fit.points_dropped == 2

    def test_too_few_usable(self):
        with pytest.raises(InsufficientDataError):
            power_law_slope([(1, 1), (0, 5)])


class TestMomentRatios:
    def test_first_ratio_is_one(self):
        for beta in DEFAULT_BETA_GRID + (0.5, 1.0, 2.0):
            assert abs(theoretical_moment_ratio(1, beta) - 1.0) <= 1e-12

    def test_exponential_second_moment(self):
        assert theoretical_moment_ratio(2, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_half_beta_closed_form(self):
        # Gamma(6) Gamma(2) / Gamma(4)^2 = 120 / 36
        assert theoretical_moment_ratio(2, 0.5) == pytest.approx(10.0 / 3.0, rel=1e-12)

    def test_matches_quadrature(self):
        # direct integration of the stretched-exponential moments, via the
        # substitution t = x^beta that turns the integrand into a gamma kernel
        def raw_moment(k, beta):
            val, _ = quad(lambda t: t ** ((k + 1) / beta - 1) * math.exp(-t), 0, np.inf, limit=400)
            return val / beta

        for beta in (0.2, 0.28, 0.5, 1.0):
            for k in (1.5, 2.0, 2.5, 3.0):
                ratio = raw_moment(k, beta) / raw_moment(0, beta)
                mean = raw_moment(1, beta) / raw_moment(0, beta)
                expected = ratio / mean**k
                assert theoretical_moment_ratio(k, beta) == pytest.approx(expected, rel=1e-6)

    def test_empirical_definition(self):
        assert empirical_moment_ratio(1, [4.0, 9.0, 2.0]) == 1.0
        assert empirical_moment_ratio(2, [1.0, 3.0]) == pytest.approx(1.25)

    def test_empirical_constant_data(self):
        for k in (1.0, 1.5, 2.0, 3.0):
            assert empirical_moment_ratio(k, [6.5] * 40) == pytest.approx(1.0, abs=1e-12)

    def test_empirical_tracks_theoretical(self):
        params = StretchedExpParams(beta=0.28)
        x = sample_stretched_exp(params, 100_000, np.random.default_rng(5))
        for k in (1.5, 2.0):
            r = empirical_moment_ratio(k, x)
            m = theoretical_moment_ratio(k, 0.28)
            assert abs(r - m) / m < 0.1

    def test_empirical_in_log_space(self):
        # n ** (k - 1) and sum(x) ** k overflow here, the ratio does not
        assert empirical_moment_ratio(2000, [7.5] * 16) == pytest.approx(1.0, abs=1e-12)
        assert empirical_moment_ratio(10, [1e50, 2.0, 3.0]) == pytest.approx(3.0**9, rel=1e-12)

    def test_empirical_matches_exact_fraction(self):
        # at integer k and integer totals R_k is an exact rational; the worst
        # error on this set is about 5e-14
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(2, 200)
            top = rng.randint(0, 50)
            totals = [rng.randint(1, 10 ** rng.randint(0, top)) for _ in range(n)]
            assert max(totals) <= MAX_COUNT
            for k in (1, 2, 3, 5, 10):
                exact = Fraction(n ** (k - 1) * sum(x**k for x in totals), sum(totals) ** k)
                got = empirical_moment_ratio(k, totals)
                assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact, (k, totals)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            empirical_moment_ratio(2, [1.0, 0.0])

    @pytest.mark.parametrize(
        "ratio, args, named",
        [
            (theoretical_moment_ratio, (1.1, 1e-300), "k=1.1, beta=1e-300"),  # exp overflows
            (theoretical_moment_ratio, (2.0, 1e-306), "k=2.0, beta=1e-306"),  # lgamma overflows
            (empirical_moment_ratio, (1e300, [2.0, 3.0]), "k=1e+300"),  # n ** (k - 1) overflows
            (empirical_moment_ratio, (1000, [1e50, 2.0, 3.0]), "k=1000"),  # about 3 ** 999
        ],
        ids=["exp", "lgamma", "power", "overflow"],
    )
    def test_ratio_outside_double_range_refused(self, ratio, args, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(named)):
                ratio(*args)


class TestFitBeta:
    def test_recovers_generated_shape(self):
        params = StretchedExpParams(beta=0.28)
        x = sample_stretched_exp(params, 400_000, np.random.default_rng(0))
        assert fit_beta(x).beta == 0.28

    def test_objective_shape(self):
        x = sample_stretched_exp(StretchedExpParams(beta=0.28), 50_000, np.random.default_rng(1))
        fit = fit_beta(x)
        assert fit.grid == DEFAULT_BETA_GRID
        assert len(fit.objective_per_beta) == len(fit.grid)
        assert fit.objective_per_beta[fit.grid.index(fit.beta)] == min(fit.objective_per_beta)

    def test_likelihood_matches_half_generalized_normal(self):
        # the density is twice scipy's generalized normal on x > 0, evaluated
        # at the closed-form scale x0 = (beta * mean(x^beta))^(1/beta)
        x = sample_stretched_exp(StretchedExpParams(beta=0.28, scale=7.0), 5_000, np.random.default_rng(3))
        fit = fit_beta(x)
        for beta, nll in zip(fit.grid, fit.objective_per_beta):
            x0 = (beta * np.mean(x**beta)) ** (1 / beta)
            expected = -np.mean(math.log(2.0) + gennorm.logpdf(x, beta, scale=x0))
            assert nll == pytest.approx(expected, rel=1e-10)

    def test_likelihood_finite_for_large_values(self):
        # x^5 overflows a double here; the mean is taken in log space
        x = np.geomspace(1e60, 1e80, 50)
        fit = fit_beta(x, beta_grid=(0.3, 1.0, 5.0))
        assert all(math.isfinite(v) for v in fit.objective_per_beta)

    @pytest.mark.parametrize("kwargs", [{"objective": "moments"}, {"k_grid": (1.0, 2.0)}])
    def test_likelihood_is_the_only_objective(self, kwargs):
        x = sample_stretched_exp(StretchedExpParams(beta=0.28), 1_000, np.random.default_rng(2))
        with pytest.raises(TypeError):
            fit_beta(x, **kwargs)

    def test_needs_ten_points(self):
        with pytest.raises(InsufficientDataError):
            fit_beta([1.0] * 9)

    def test_beta_grid_floor(self):
        x = sample_stretched_exp(StretchedExpParams(beta=0.28), 1_000, np.random.default_rng(2))
        with pytest.raises(ValueError, match="must be positive"):
            fit_beta(x, beta_grid=(0.0, 0.3))
        with pytest.raises(ValueError, match="at least 1e-06, got 1e-300"):
            fit_beta(x, beta_grid=(1e-300, 0.3))
        assert fit_beta(x, beta_grid=(1e-6, 0.3)).grid == (1e-6, 0.3)

    def test_non_finite_beta_grid_value_refused(self):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"beta grid value {value} is not a finite double"):
                fit_beta(np.arange(1, 30), beta_grid=(value, 0.3))


class TestGiddingsEval:
    def test_zero_amplitude_is_baseline(self):
        flat = GiddingsFit(baseline=0.912, amplitude=0.0, width=2.5, center=10.0)
        for h in (0.5, 1.0, 10.0, 40.0):
            assert giddings_eval(h, flat) == 0.912

    def test_frozen_regression_value_at_center(self):
        assert giddings_eval(10.44, REFERENCE_PEAK) == pytest.approx(
            REFERENCE_PEAK_VALUE_AT_CENTER, rel=1e-12
        )

    def test_always_above_baseline(self):
        # strictly above wherever the peak term is representable; in the far
        # tail it underflows below one ulp of the baseline
        for h in np.geomspace(0.01, 100.0, 200):
            assert giddings_eval(float(h), REFERENCE_PEAK) > REFERENCE_PEAK.baseline
        for h in (200.0, 500.0, 5000.0):
            assert giddings_eval(h, REFERENCE_PEAK) >= REFERENCE_PEAK.baseline

    def test_stable_for_extreme_arguments(self):
        # raw I1 would overflow here; the scaled evaluation must not
        sharp = GiddingsFit(baseline=0.0, amplitude=1.0, width=1e-3, center=100.0)
        assert math.isfinite(giddings_eval(100.0, sharp))
        assert math.isfinite(giddings_eval(400.0, sharp))

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            giddings_eval(0.0, REFERENCE_PEAK)


def reference_histogram(noise_seed=None):
    edges = tuple(float(e) for e in range(1, 42))
    centers = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    counts = [giddings_eval(c, REFERENCE_PEAK) for c in centers]
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        counts = [c * (1.0 + 0.01 * rng.standard_normal()) for c in counts]
    return Histogram(bin_edges=edges, counts=tuple(counts))


# pooled h-indexes of 5k members in bins of width 10
POOLED_H = Histogram(
    bin_edges=tuple(float(e) for e in range(1, 82, 10)),
    counts=(938, 1808, 1246, 641, 241, 94, 29, 3),
)
# histograms with no peak inside the binned range
RISING = Histogram(
    bin_edges=tuple(float(e) for e in range(1, 9)),
    counts=(1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0),
)
STEP = Histogram(
    bin_edges=tuple(float(e) for e in range(2, 10)),
    counts=(3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 2.0),
)


class TestFitGiddings:
    def test_noiseless_round_trip_within_one_percent(self):
        fit = fit_giddings(reference_histogram())
        for name in ("baseline", "amplitude", "width", "center"):
            got = getattr(fit, name)
            want = getattr(REFERENCE_PEAK, name)
            assert abs(got - want) / abs(want) < 0.01
        assert fit.converged
        assert fit.residual_ss < 1e-10

    def test_noisy_round_trip_within_five_percent(self):
        fit = fit_giddings(reference_histogram(noise_seed=7))
        for name in ("baseline", "amplitude", "width", "center"):
            got = getattr(fit, name)
            want = getattr(REFERENCE_PEAK, name)
            assert abs(got - want) / abs(want) < 0.05

    def test_needs_six_nonempty_bins(self):
        hist = Histogram(
            bin_edges=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
            counts=(1.0, 4.0, 9.0, 4.0, 1.0),
        )
        with pytest.raises(InsufficientDataError):
            fit_giddings(hist)

    def test_deterministic(self):
        a = fit_giddings(reference_histogram(noise_seed=7))
        b = fit_giddings(reference_histogram(noise_seed=7))
        assert a == b

    @pytest.mark.parametrize(
        "hist",
        [reference_histogram(noise_seed=7), POOLED_H],
        ids=["reference-noisy", "pooled-h"],
    )
    def test_baseline_and_amplitude_are_the_least_squares_solution(self, hist):
        fit = fit_giddings(hist)
        shape = GiddingsFit(baseline=0.0, amplitude=1.0, width=fit.width, center=fit.center)
        g = np.array([giddings_eval(h, shape) for h in hist.centers()])
        (baseline, amplitude), *_ = np.linalg.lstsq(
            np.column_stack([np.ones(g.size), g]), np.asarray(hist.counts, dtype=float), rcond=None
        )
        assert fit.baseline == pytest.approx(baseline, rel=1e-9)
        assert fit.amplitude == pytest.approx(amplitude, rel=1e-9)

    def test_constant_counts_fit_the_baseline_alone(self):
        hist = Histogram(bin_edges=tuple(float(e) for e in range(1, 9)), counts=(5.0,) * 7)
        fit = fit_giddings(hist)
        assert (fit.amplitude, fit.baseline, fit.residual_ss) == (0.0, 5.0, 0.0)

    def test_valley_matches_the_four_parameter_search(self):
        # recorded from the search over all four parameters; at one point of
        # the search the peak shape has no spread over the bins, where the
        # solve must not divide 0 by 0
        hist = Histogram(
            bin_edges=tuple(float(e) for e in range(1, 12)),
            counts=(20.0, 15.0, 10.0, 6.0, 3.0, 2.0, 3.0, 6.0, 10.0, 15.0),
        )
        fit = fit_giddings(hist)
        want = GiddingsFit(
            baseline=6.449644058321937,
            amplitude=28.95646000832233,
            width=0.2022151472643171,
            center=1.9310859632777264,
            residual_ss=131.83859639623233,
        )
        for name in ("baseline", "amplitude", "width", "center"):
            assert getattr(fit, name) == pytest.approx(getattr(want, name), rel=1e-6)
        assert fit.residual_ss == pytest.approx(want.residual_ss, rel=1e-12)
        assert fit.converged

    def test_rising_counts_do_not_divide_by_zero(self):
        # the best peak lies right of the data, where the shape's spread over
        # the bins underflows to 0 while its covariance with the counts does
        # not; the search stops at the box's last edge and says so
        with pytest.raises(FitDivergedError, match=re.escape("bound center = last edge 8")):
            fit_giddings(RISING)

    def test_step_counts_end_on_the_width_floor(self):
        # a spike between the two tall bins keeps lowering the residual as
        # the width falls; the search stops at min bin width / 8
        with pytest.raises(FitDivergedError, match=re.escape("bound width = min bin width / 8 = 0.125")):
            fit_giddings(STEP)

    def test_constant_counts_from_zero_keep_a_positive_center(self):
        # the box's first edge is 0, where the peak shape vanishes
        hist = Histogram(bin_edges=tuple(float(e) for e in range(8)), counts=(5.0,) * 7)
        fit = fit_giddings(hist)
        assert (fit.amplitude, fit.baseline, fit.residual_ss) == (0.0, 5.0, 0.0)
        assert fit.center > 0

    def test_grid_in_blocks_matches_one_block(self, monkeypatch):
        hist = reference_histogram(noise_seed=7)
        whole = fit_giddings(hist)
        monkeypatch.setattr(distribution, "_GRID_CELLS", 7 * len(hist.counts))
        assert fit_giddings(hist) == whole

    def test_evaluation_budget(self, monkeypatch):
        # one call for the whole grid plus one per simplex evaluation;
        # eight restarts of the simplex took about 1.4k
        calls = []
        bessel = distribution.bessel_i1_scaled

        def counting(x):
            calls.append(1)
            return bessel(x)

        monkeypatch.setattr(distribution, "bessel_i1_scaled", counting)
        assert fit_giddings(POOLED_H).converged
        assert 1 <= len(calls) <= 400


class TestShapeStatistics:
    def test_kurtosis_two_point(self):
        assert kurtosis([-1.0, 1.0]) == pytest.approx(-2.0)

    def test_kurtosis_three_point(self):
        assert kurtosis([-1.0, 0.0, 1.0]) == pytest.approx(-1.5)

    def test_skewness_symmetric_sample(self):
        assert skewness([-2.0, -1.0, 1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_skewness_hand_value(self):
        # mean 1, mu2 = 2, mu3 = 2  ->  2 / 2^1.5 = 1/sqrt(2)
        assert skewness([0.0, 0.0, 3.0]) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVarianceError):
            kurtosis([3.0, 3.0, 3.0])
        with pytest.raises(ZeroVarianceError):
            skewness([3.0, 3.0])

    def test_invariances(self, rng):
        x = rng.standard_normal(60) * 3.0 + 1.0
        shifted = x + 17.0
        scaled = x * 4.0
        assert kurtosis(shifted) == pytest.approx(kurtosis(x), abs=1e-12)
        assert kurtosis(scaled) == pytest.approx(kurtosis(x), abs=1e-12)
        assert skewness(shifted) == pytest.approx(skewness(x), abs=1e-12)
        assert abs(skewness(scaled)) == pytest.approx(abs(skewness(x)), abs=1e-12)


class TestBuildHistogram:
    def test_linear_enumeration(self):
        hist = build_histogram([1, 1, 2, 3], 1.0)
        assert hist.bin_edges == (1.0, 2.0, 3.0, 4.0)
        assert hist.counts == (2, 1, 1)

    def test_single_value(self):
        hist = build_histogram([5.0], 1.0)
        assert hist.counts == (1,)

    def test_counts_conserved(self, rng):
        for _ in range(30):
            data = rng.integers(1, 500, size=int(rng.integers(1, 200)))
            hist = build_histogram([int(v) for v in data], float(rng.uniform(0.5, 20)))
            assert sum(hist.counts) == len(data)

    def test_bad_specs(self):
        with pytest.raises(BinSpecError):
            build_histogram([1.0, 2.0], 0.0)
        with pytest.raises(BinSpecError):
            build_histogram([], 1.0)
