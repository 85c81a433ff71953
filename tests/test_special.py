"""Modified Bessel function I1 against independent oracles."""

import math

import numpy as np
import pytest

from alphaindex.distribution import bessel_i1, bessel_i1_scaled


def series_oracle(x: float) -> float:
    """Ascending power series sum_m (x/2)^(2m+1) / (m! (m+1)!), summed to
    machine precision.  All terms are positive, so no cancellation occurs."""
    if x == 0.0:
        return 0.0
    t = 0.5 * x
    term = t
    total = t
    m = 0
    while True:
        m += 1
        term *= t * t / (m * (m + 1))
        total += term
        if term <= total * 1e-18:
            return total


def simpson_oracle(x: float, panels: int = 8192) -> float:
    """Composite Simpson quadrature of (1/pi) * int_0^pi e^(x cos t) cos t dt."""
    theta = np.linspace(0.0, math.pi, panels + 1)
    f = np.exp(x * np.cos(theta)) * np.cos(theta)
    h = math.pi / panels
    integral = (h / 3.0) * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    return integral / math.pi


def test_zero_is_exact():
    assert bessel_i1(0.0) == 0.0


def test_reference_values():
    assert bessel_i1(1.0) == pytest.approx(0.5651591039924851, rel=1e-12)
    assert bessel_i1(10.0) == pytest.approx(2670.988303701255, rel=1e-12)


def test_matches_series_oracle_on_0_30():
    for x in np.linspace(0.0, 30.0, 1000):
        ref = series_oracle(float(x))
        if ref == 0.0:
            assert bessel_i1(float(x)) == 0.0
        else:
            assert bessel_i1(float(x)) == pytest.approx(ref, rel=1e-10)


def test_matches_quadrature_oracle_on_0_10():
    for x in np.linspace(0.01, 10.0, 200):
        assert bessel_i1(float(x)) == pytest.approx(simpson_oracle(float(x)), rel=1e-8)


def test_matches_series_across_crossover_and_beyond():
    # the asymptotic branch must agree with the series wherever both converge
    for x in (15.0, 19.999, 20.0, 20.001, 25.0, 50.0, 120.0, 300.0, 700.0):
        assert bessel_i1(x) == pytest.approx(series_oracle(x), rel=1e-10)


def test_strictly_increasing_on_range():
    xs = np.linspace(0.0, 700.0, 3000)
    vals = [bessel_i1(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_domain_guards():
    with pytest.raises(ValueError):
        bessel_i1(-0.1)
    with pytest.raises(OverflowError):
        bessel_i1(700.5)


def test_scaled_variant_consistent():
    for x in (0.0, 0.5, 5.0, 19.0, 21.0, 100.0, 650.0):
        expected = series_oracle(x) * math.exp(-x)
        assert bessel_i1_scaled(x) == pytest.approx(expected, rel=1e-10)
    # scaled form stays finite where the raw value would overflow
    assert bessel_i1_scaled(5000.0) > 0.0


def test_scaled_variant_is_elementwise():
    xs = np.array([0.0, 0.5, 5.0, 19.0, 21.0, 100.0, 650.0, 5000.0])
    got = bessel_i1_scaled(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert isinstance(bessel_i1_scaled(5.0), float)
    assert got.tolist() == [bessel_i1_scaled(float(x)) for x in xs]


def test_scaled_variant_domain_guard_on_arrays():
    # the message names the most negative value
    with pytest.raises(ValueError) as exc:
        bessel_i1_scaled(np.array([1.0, -0.1, 3.0, -2.5]))
    assert str(exc.value) == "bessel_i1_scaled requires x >= 0, got -2.5"
    with pytest.raises(ValueError) as exc:
        bessel_i1_scaled(-0.1)
    assert str(exc.value) == "bessel_i1_scaled requires x >= 0, got -0.1"
