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


# one total at the count ceiling among eleven small ones
_CEILING_TOTALS = [float(MAX_COUNT), *(20.0 + 13 * i for i in range(1, 12))]


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

    def test_empirical_at_count_ceiling_is_finite(self):
        # R_k is about 12 ** (k - 1) here; k = 300 is refused below
        assert empirical_moment_ratio(10.0, _CEILING_TOTALS) == pytest.approx(12.0**9, rel=1e-12)

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
        "ratio, args, error, message",
        [
            (theoretical_moment_ratio, (0.5, 0.3), ValueError, "k must be >= 1, got 0.5"),
            (theoretical_moment_ratio, (2, 0.0), ValueError, "beta must be positive, got 0.0"),
            (theoretical_moment_ratio, (2, -1), ValueError, "beta must be positive, got -1"),
            (empirical_moment_ratio, (0, [1.0, 2.0]), ValueError, "k must be >= 1, got 0"),
            (empirical_moment_ratio, (2, []), InsufficientDataError,
             "moment ratio of an empty sample"),
            (empirical_moment_ratio, (2, [3.0, -1.0]), ValueError,
             "moment ratios require strictly positive data"),
        ],
        ids=["theory-k", "theory-beta-zero", "theory-beta-negative", "sample-k", "empty",
             "negative"],
    )
    def test_refusals_name_their_reason(self, ratio, args, error, message):
        with pytest.raises(error) as exc:
            ratio(*args)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "ratio, args, named",
        [
            (theoretical_moment_ratio, (1.1, 1e-300), "k=1.1, beta=1e-300"),  # exp overflows
            (theoretical_moment_ratio, (2.0, 1e-306), "k=2.0, beta=1e-306"),  # lgamma overflows
            (empirical_moment_ratio, (1e300, [2.0, 3.0]), "k=1e+300"),  # n ** (k - 1) overflows
            (empirical_moment_ratio, (1000, [1e50, 2.0, 3.0]), "k=1000"),  # about 3 ** 999
            # R_k is about 12 ** (k - 1) here, ln R_k about k * ln 12
            (empirical_moment_ratio, (300.0, _CEILING_TOTALS), "k=300.0"),
        ],
        ids=["exp", "lgamma", "power", "overflow", "ceiling"],
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
        # values up to near the largest double
        x = np.geomspace(1e60, 1.7e308, 50)
        fit = fit_beta(x)
        assert all(math.isfinite(v) for v in fit.objective_per_beta)

    @pytest.mark.parametrize(
        "kwargs",
        [{"objective": "moments"}, {"k_grid": (1.0, 2.0)}, {"beta_grid": DEFAULT_BETA_GRID}],
    )
    def test_likelihood_is_the_only_objective(self, kwargs):
        x = sample_stretched_exp(StretchedExpParams(beta=0.28), 1_000, np.random.default_rng(2))
        with pytest.raises(TypeError):
            fit_beta(x, **kwargs)

    def test_needs_ten_points(self):
        with pytest.raises(InsufficientDataError):
            fit_beta([1.0] * 9)

    def test_nonpositive_data_refused(self):
        with pytest.raises(ValueError) as exc:
            fit_beta([5.0] * 10 + [0.0])
        assert str(exc.value) == "shape fit requires strictly positive data"


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

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("amplitude", -1.0, "amplitude must be non-negative, got -1.0"),
            ("width", 0.0, "width must be positive, got 0.0"),
            ("center", -2.0, "center must be positive, got -2.0"),
            ("residual_ss", -0.5, "residual_ss must be non-negative, got -0.5"),
        ],
    )
    def test_field_refused(self, field, value, error):
        fields = {"baseline": 0.0, "amplitude": 1.0, "width": 2.0, "center": 10.0, field: value}
        with pytest.raises(ValueError) as exc:
            GiddingsFit(**fields)
        assert str(exc.value) == error


def reference_histogram(noise_seed=None):
    edges = tuple(float(e) for e in range(1, 42))
    centers = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    counts = [giddings_eval(c, REFERENCE_PEAK) for c in centers]
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        counts = [c * (1.0 + 0.01 * rng.standard_normal()) for c in counts]
    return Histogram(bin_edges=edges, counts=tuple(counts))


def wide_histogram(n_bins, *peaks, noise_seed=None):
    """``n_bins`` unit bins from h = 1 holding the sum of ``peaks``."""
    edges = tuple(float(e) for e in range(1, n_bins + 2))
    counts = np.array([sum(giddings_eval(h + 0.5, p) for p in peaks) for h in edges[:-1]])
    if noise_seed is not None:
        counts *= 1.0 + 0.01 * np.random.default_rng(noise_seed).standard_normal(n_bins)
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
# a broad peak on 150 unit bins, so the grid runs on merged bins, and two
# peaks on 40; whole counts keep them free of last-digit differences in
# how the peaks are evaluated
MERGED_150 = Histogram(
    bin_edges=tuple(float(e) for e in range(1, 152)),
    counts=tuple(
        float(round(c)) for c in wide_histogram(150, GiddingsFit(2.0, 900.0, 8.0, 50.0)).counts
    ),
)
TWO_PEAKS = Histogram(
    bin_edges=tuple(float(e) for e in range(1, 42)),
    counts=(9.0, 15.0, 22.0, 28.0, 31.0, 32.0, 31.0, 29.0, 25.0, 21.0, 18.0, 14.0, 12.0, 10.0,
            8.0, 7.0, 7.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 12.0, 13.0, 14.0, 14.0, 14.0, 14.0,
            14.0, 13.0, 12.0, 12.0, 11.0, 10.0, 9.0, 8.0, 7.0, 6.0, 6.0),
)
CONSTANT = Histogram(bin_edges=tuple(float(e) for e in range(1, 9)), counts=(5.0,) * 7)


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

    # float.hex of baseline, amplitude, width, center and residual_ss
    @pytest.mark.parametrize(
        "hist, want",
        [
            (POOLED_H, ("0x1.68a9066894d80p+4", "0x1.763c2afcd3ad5p+15", "0x1.95fe3fecbe810p+1",
                        "0x1.52f198d460884p+4", "0x1.702ac1f573778p+12")),
            (MERGED_150, ("0x1.da6544d533574p+0", "0x1.cc93a0ef74a13p+9", "0x1.066daa2fcb903p+3",
                          "0x1.9278aedaaafe7p+5", "0x1.b0bfe2fbaacf0p+3")),
            (TWO_PEAKS, ("0x1.45de31cfc6714p+3", "0x1.3b88620d5c61bp+7", "0x1.15ebdfcf76bd3p-1",
                         "0x1.d3b625f1eecccp+2", "0x1.bc59c63a9ac04p+7")),
            (CONSTANT, ("0x1.4000000000000p+2", "0x0.0p+0", "0x1.0000000000001p-3",
                        "0x1.0000000000000p+0", "0x0.0p+0")),
        ],
        ids=["pooled-h", "merged-150-bins", "two-peaks", "constant"],
    )
    def test_outputs_pinned_to_the_last_bit(self, hist, want):
        fit = fit_giddings(hist)
        fields = (fit.baseline, fit.amplitude, fit.width, fit.center, fit.residual_ss)
        assert (tuple(x.hex() for x in fields), fit.converged) == (want, True)

    def test_bins_below_zero_refused(self):
        hist = Histogram(bin_edges=tuple(float(e) for e in range(-1, 8)), counts=(5.0,) * 8)
        with pytest.raises(ValueError) as exc:
            fit_giddings(hist)
        assert str(exc.value) == "peak-shape fit needs bins at h >= 0"

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
        fit = fit_giddings(CONSTANT)
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

    def test_grid_runs_on_at_most_64_bins(self, monkeypatch):
        # 1,200 bins: one full-bin grid would pass 2,304 x 1,200 values
        hist = wide_histogram(1200, GiddingsFit(3.0, 4e4, 20.0, 400.0))
        sizes = []
        bessel = distribution.bessel_i1_scaled

        def recording(x):
            sizes.append(np.size(x))
            return bessel(x)

        monkeypatch.setattr(distribution, "bessel_i1_scaled", recording)
        assert fit_giddings(hist).converged
        assert max(sizes) <= 64 * 2304
        assert sizes.count(1200) == len(sizes) - 1  # the simplex sees every bin

    def test_merge_is_the_identity_at_64_bins(self, monkeypatch):
        hist = wide_histogram(64, GiddingsFit(1.0, 500.0, 2.0, 20.0), noise_seed=3)
        merged = fit_giddings(hist)
        monkeypatch.setattr(distribution, "_GRID_BINS", 10**6)
        assert fit_giddings(hist) == merged

    @pytest.mark.parametrize(
        "hist",
        [
            # a spike about 2.4 bins wide on a broad peak: 300 bins merge in
            # runs of 5, so the merged grid starts the simplex elsewhere
            wide_histogram(
                300, GiddingsFit(5.0, 2000.0, 50.0, 100.0), GiddingsFit(0.0, 300.0, 0.15, 20.0)
            ),
            wide_histogram(
                240,
                GiddingsFit(1.0, 3000.0, 6.0, 60.0),
                GiddingsFit(0.0, 2000.0, 6.0, 170.0),
                noise_seed=5,
            ),
        ],
        ids=["narrow-spike", "two-peaks"],
    )
    def test_merged_grid_matches_the_full_grid(self, monkeypatch, hist):
        merged = fit_giddings(hist)
        monkeypatch.setattr(distribution, "_GRID_BINS", 10**6)
        full = fit_giddings(hist)
        assert merged.width == pytest.approx(full.width, rel=1e-6)
        assert merged.center == pytest.approx(full.center, rel=1e-6)
        assert merged.residual_ss <= full.residual_ss * (1 + 1e-9)

    def test_bound_refusal_names_the_full_bins(self):
        # merged in runs of 4, the bins would be 4 wide and the floor 0.5
        counts = [2.0] * 200
        counts[100] = counts[101] = 30.0
        hist = Histogram(bin_edges=tuple(float(e) for e in range(201)), counts=tuple(counts))
        with pytest.raises(FitDivergedError) as exc:
            fit_giddings(hist)
        assert str(exc.value) == (
            "Giddings fit ends on the search box bound width = min bin width / 8 = 0.125: "
            "the histogram has no interior peak"
        )

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

    @pytest.mark.parametrize("statistic", [kurtosis, skewness], ids=lambda f: f.__name__)
    def test_single_value_refused(self, statistic):
        with pytest.raises(ValueError) as exc:
            statistic([3.0])
        assert str(exc.value) == f"{statistic.__name__} needs n >= 2, got 1"

    def test_invariances(self, rng):
        x = rng.standard_normal(60) * 3.0 + 1.0
        shifted = x + 17.0
        scaled = x * 4.0
        assert kurtosis(shifted) == pytest.approx(kurtosis(x), abs=1e-12)
        assert kurtosis(scaled) == pytest.approx(kurtosis(x), abs=1e-12)
        assert skewness(shifted) == pytest.approx(skewness(x), abs=1e-12)
        assert abs(skewness(scaled)) == pytest.approx(abs(skewness(x)), abs=1e-12)


class TestBuildHistogram:
    @pytest.mark.parametrize(
        "edges, counts, error",
        [
            ((0.0, 1.0, 2.0), (1.0,), "need exactly one more edge than counts"),
            ((0.0, 1.0), (1.0, 2.0), "need exactly one more edge than counts"),
            ((0.0, 2.0, 1.0), (1.0, 1.0), "bin edges must be strictly increasing"),
            ((0.0, 1.0, 1.0), (1.0, 1.0), "bin edges must be strictly increasing"),
        ],
    )
    def test_histogram_shape_refused(self, edges, counts, error):
        with pytest.raises(ValueError) as exc:
            Histogram(bin_edges=edges, counts=counts)
        assert str(exc.value) == error

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

    def test_last_edge_past_the_maximum(self):
        # 3,920 bins of 1.1 end exactly on the maximum, 131242.0, which the
        # half-open bins would drop; one more bin takes it
        hist = build_histogram([126930, 131242], 1.1)
        assert len(hist.counts) == 3921
        assert hist.bin_edges[-2:] == (131242.0, 131243.1)
        assert hist.counts[0] == hist.counts[-1] == 1
        assert sum(hist.counts) == 2

    def test_bad_specs(self):
        with pytest.raises(BinSpecError):
            build_histogram([1.0, 2.0], 0.0)
        with pytest.raises(BinSpecError):
            build_histogram([], 1.0)
