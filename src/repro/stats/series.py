"""Time-series statistics for Monte Carlo estimator traces."""

from __future__ import annotations

import numpy as np


# Below this size the O(n * max_lag) direct sum is cheaper than setting
# up two FFTs; above it the FFT path wins decisively (O(n log n) total,
# which is what makes the offline oracle usable on full production
# traces inside the differential test battery).
_FFT_MIN_SIZE = 256


def autocorrelation_function(x: np.ndarray, max_lag: int | None = None,
                             method: str = "auto") -> np.ndarray:
    """Normalized autocorrelation rho(k) for k = 0..max_lag.

    rho(0) == 1; computed with the standard biased estimator (divides by
    the lag-0 variance and the full length), which is what integrated
    autocorrelation-time estimates want.

    ``method`` selects the evaluation path: ``"direct"`` is the lag-loop
    reference, ``"fft"`` evaluates every lag at once via the Wiener-
    Khinchin theorem (zero-padded rfft, so no circular aliasing), and
    ``"auto"`` picks by size.  The two paths agree within 1e-12.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    if max_lag is None:
        max_lag = n - 1
    max_lag = min(max_lag, n - 1)
    if method not in ("auto", "fft", "direct"):
        raise ValueError(f"unknown method {method!r}")
    xc = x - x.mean()
    var = float(xc @ xc)
    if var == 0.0:
        # Constant series: perfectly correlated at every lag.
        return np.ones(max_lag + 1)
    if method == "direct" or (method == "auto" and n < _FFT_MIN_SIZE):
        out = np.empty(max_lag + 1)
        for k in range(max_lag + 1):
            out[k] = float(xc[: n - k] @ xc[k:]) / var
        return out
    # Wiener-Khinchin: the linear (non-circular) autocovariance is the
    # inverse transform of |F(xc)|^2 once xc is zero-padded to >= 2n.
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    f = np.fft.rfft(xc, n=nfft)
    acov = np.fft.irfft(f * np.conj(f), n=nfft)[: max_lag + 1]
    return acov / var


def autocorrelation_time(x: np.ndarray, window: int | None = None) -> float:
    """Integrated autocorrelation time tau = 1 + 2 sum_k rho(k).

    Uses the standard self-consistent window (sum until the first
    non-positive rho, or ``window`` lags) to avoid noise accumulation.
    Returns >= 1; independent samples give ~1.
    """
    rho = autocorrelation_function(x, window)
    tau = 1.0
    for k in range(1, rho.size):
        if rho[k] <= 0:
            break
        tau += 2.0 * rho[k]
    return tau


def blocking_error(x: np.ndarray, min_blocks: int = 8) -> float:
    """Flyvbjerg-Petersen blocking estimate of the standard error.

    Recursively pair-averages the series; the error estimate at each
    level is s/sqrt(n_blocks); returns the maximum over levels (the
    plateau), which corrects for autocorrelation.
    """
    x = np.asarray(x, dtype=np.float64).copy()
    if x.size < 2:
        return float("nan")
    best = float(np.std(x, ddof=1) / np.sqrt(x.size))
    while x.size // 2 >= min_blocks:
        x = 0.5 * (x[0::2][: x.size // 2] + x[1::2][: x.size // 2])
        err = float(np.std(x, ddof=1) / np.sqrt(x.size))
        best = max(best, err)
    return best


def dmc_efficiency(energies: np.ndarray, total_seconds: float) -> float:
    """The paper's kappa = 1 / (sigma^2 * tau_corr * T_MC).

    Larger is better; doubling throughput at fixed trial function doubles
    kappa.
    """
    energies = np.asarray(energies, dtype=np.float64)
    if energies.size < 2 or total_seconds <= 0:
        return 0.0
    sigma2 = float(np.var(energies, ddof=1))
    if sigma2 == 0.0:
        return float("inf")
    tau = autocorrelation_time(energies)
    return 1.0 / (sigma2 * tau * total_seconds)
