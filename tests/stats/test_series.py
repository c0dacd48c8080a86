"""Tests for the Monte Carlo statistics module."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.series import (
    autocorrelation_function, autocorrelation_time, blocking_error,
    dmc_efficiency,
)


def _ar1(n, phi, seed=0):
    """AR(1) series with known tau = (1+phi)/(1-phi)."""
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.normal()
    for i in range(1, n):
        x[i] = phi * x[i - 1] + rng.normal() * np.sqrt(1 - phi ** 2)
    return x


class TestAutocorrelation:
    def test_rho0_is_one(self):
        x = np.random.default_rng(1).normal(size=100)
        rho = autocorrelation_function(x, 10)
        assert rho[0] == pytest.approx(1.0)

    def test_white_noise_uncorrelated(self):
        x = np.random.default_rng(2).normal(size=20000)
        rho = autocorrelation_function(x, 5)
        assert np.all(np.abs(rho[1:]) < 0.05)
        assert autocorrelation_time(x) == pytest.approx(1.0, abs=0.15)

    def test_ar1_time_matches_theory(self):
        phi = 0.7
        x = _ar1(200000, phi, seed=3)
        tau_theory = (1 + phi) / (1 - phi)  # 5.67
        assert autocorrelation_time(x, window=200) == pytest.approx(
            tau_theory, rel=0.2)

    def test_constant_series(self):
        rho = autocorrelation_function(np.ones(50), 5)
        assert np.all(rho == 1.0)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            autocorrelation_function(np.array([1.0]))


class TestAutocorrelationFFT:
    """The Wiener-Khinchin path must agree with the lag-loop reference."""

    @pytest.mark.parametrize("n", [2, 3, 17, 100, 1024, 4097])
    def test_fft_matches_direct(self, n):
        x = _ar1(n, 0.6, seed=n) if n > 2 else np.array([1.0, -2.0])[:n + 1]
        direct = autocorrelation_function(x, method="direct")
        fft = autocorrelation_function(x, method="fft")
        assert fft.shape == direct.shape
        np.testing.assert_allclose(fft, direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("max_lag", [0, 1, 5, 99])
    def test_fft_matches_direct_with_max_lag(self, max_lag):
        x = _ar1(100, 0.5, seed=21)
        direct = autocorrelation_function(x, max_lag, method="direct")
        fft = autocorrelation_function(x, max_lag, method="fft")
        np.testing.assert_allclose(fft, direct, rtol=0, atol=1e-12)

    def test_auto_selects_consistent_result(self):
        for n in (32, 5000):  # straddles the _FFT_MIN_SIZE switchover
            x = _ar1(n, 0.4, seed=n + 1)
            auto = autocorrelation_function(x, 10, method="auto")
            direct = autocorrelation_function(x, 10, method="direct")
            np.testing.assert_allclose(auto, direct, rtol=0, atol=1e-12)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="method"):
            autocorrelation_function(np.arange(10.0), method="welch")

    def test_constant_series_fft(self):
        rho = autocorrelation_function(np.full(64, 3.5), 5, method="fft")
        assert np.all(rho == 1.0)

    @given(st.integers(min_value=3, max_value=400),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_fft_matches_direct_property(self, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        direct = autocorrelation_function(x, method="direct")
        fft = autocorrelation_function(x, method="fft")
        np.testing.assert_allclose(fft, direct, rtol=0, atol=1e-12)


class TestBlocking:
    def test_white_noise_matches_naive(self):
        x = np.random.default_rng(7).normal(size=4096)
        naive = np.std(x, ddof=1) / np.sqrt(x.size)
        assert blocking_error(x) == pytest.approx(naive, rel=0.5)

    def test_correlated_series_bigger_error(self):
        x = _ar1(4096, 0.9, seed=8)
        naive = np.std(x, ddof=1) / np.sqrt(x.size)
        assert blocking_error(x) > 1.5 * naive

    def test_short_series_nan(self):
        assert np.isnan(blocking_error(np.array([1.0])))


class TestDmcEfficiency:
    def test_faster_run_higher_kappa(self):
        """The paper's productivity argument: same statistics in less
        wall time -> proportionally higher efficiency."""
        x = _ar1(2000, 0.5, seed=9)
        k_slow = dmc_efficiency(x, total_seconds=100.0)
        k_fast = dmc_efficiency(x, total_seconds=25.0)
        assert k_fast == pytest.approx(4.0 * k_slow, rel=1e-9)

    def test_lower_variance_higher_kappa(self):
        rng = np.random.default_rng(10)
        a = rng.normal(0, 1.0, 2000)
        b = rng.normal(0, 2.0, 2000)
        assert dmc_efficiency(a, 10.0) > dmc_efficiency(b, 10.0)

    def test_degenerate_inputs(self):
        assert dmc_efficiency(np.array([1.0]), 10.0) == 0.0
        assert dmc_efficiency(np.ones(10), 0.0) == 0.0
        assert dmc_efficiency(np.ones(10), 5.0) == float("inf")

    @settings(max_examples=20)
    @given(st.integers(10, 200), st.floats(0.1, 100.0))
    def test_kappa_positive(self, n, t):
        x = np.random.default_rng(n).normal(size=n)
        assert dmc_efficiency(x, t) > 0
