"""Synthetic population generators."""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from alphaindex.metrics import h_group
from alphaindex.synth import (
    StretchedExpParams,
    sample_stretched_exp,
    synth_group,
)


class TestSampler:
    def test_bit_identical_per_seed(self):
        params = StretchedExpParams(beta=0.28, scale=2.0)
        a = sample_stretched_exp(params, 5000, np.random.default_rng(99))
        b = sample_stretched_exp(params, 5000, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_exponential_case_inverse_cdf_at_scale_point(self):
        # at beta = 1 the draw reduces to -scale * ln(1 - U); forcing
        # U = 1 - e^(-1) lands exactly on the scale parameter
        class Forced:
            def random(self, n):
                return np.full(n, 1.0 - np.exp(-1.0))

        params = StretchedExpParams(beta=1.0, scale=3.5)
        x = sample_stretched_exp(params, 4, Forced())
        np.testing.assert_allclose(x, 3.5, rtol=1e-12)

    def test_exponential_mean(self):
        params = StretchedExpParams(beta=1.0, scale=1.0)
        x = sample_stretched_exp(params, 100_000, np.random.default_rng(3))
        assert abs(x.mean() - 1.0) < 0.02

    def test_draws_strictly_positive(self):
        params = StretchedExpParams(beta=0.28)
        x = sample_stretched_exp(params, 50_000, np.random.default_rng(0))
        assert np.all(x > 0)

    def test_ks_distance_against_analytic_cdf(self):
        params = StretchedExpParams(beta=0.28, scale=1.0)
        x = np.sort(sample_stretched_exp(params, 100_000, np.random.default_rng(7)))
        cdf = gammainc(1.0 / params.beta, (x / params.scale) ** params.beta)
        n = x.size
        upper = np.abs(np.arange(1, n + 1) / n - cdf).max()
        lower = np.abs(np.arange(0, n) / n - cdf).max()
        assert max(upper, lower) < 0.01

    def test_rounding_flag_gives_integers(self):
        params = StretchedExpParams(beta=0.5, scale=4.0)
        x = sample_stretched_exp(params, 100, np.random.default_rng(1), round_to_int=True)
        assert x.dtype.kind == "i"
        assert np.all(x >= 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StretchedExpParams(beta=0.0)
        with pytest.raises(ValueError):
            StretchedExpParams(beta=0.3, scale=-1.0)
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="beta must be finite"):
                StretchedExpParams(beta=value)
            with pytest.raises(ValueError, match="scale must be finite"):
                StretchedExpParams(beta=0.3, scale=value)
        with pytest.raises(ValueError):
            sample_stretched_exp(StretchedExpParams(beta=1.0), 0, np.random.default_rng(0))


class TestSynthGroup:
    def test_members_carry_given_h(self):
        group = synth_group("g", [1, 2, 3])
        assert group.h_values() == (1, 2, 3)
        assert h_group(group) == 2
        assert all(m.total_citations is None for m in group.members)
        assert all(m.paper_citations is None for m in group.members)

    def test_single_member(self):
        group = synth_group("g", [5])
        assert len(group.members) == 1

    @pytest.mark.parametrize("h", [2.7, "3"])
    def test_non_integer_h_refused_not_coerced(self, h):
        with pytest.raises(TypeError, match="h_index must be an integer"):
            synth_group("g", [4, h])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            synth_group("g", [])

    def test_member_ids_unique(self):
        group = synth_group("g", [4] * 30)
        ids = [m.id for m in group.members]
        assert len(set(ids)) == len(ids)
