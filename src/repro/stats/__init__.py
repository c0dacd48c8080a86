"""Monte Carlo statistics: autocorrelation, blocking, DMC efficiency.

A run's error bars come from the online reblocker (``repro.stats.online``)
as its samples stream in.  The offline series estimators
(``repro.stats.series``) give ``QMCResult.autocorrelation_time()`` and
``QMCResult.efficiency()`` (kappa below), and serve as the tests'
oracles for the reblocker.

Sec. 3 of the paper defines the DMC efficiency as

    kappa = 1 / (sigma^2 * tau_corr * T_MC)

where sigma^2 is the variance of the local energy for the optimized
trial function, tau_corr the autocorrelation time of the E_L series
(Box-Jenkins), and T_MC the total Monte Carlo time.  Faster code lowers
T_MC at fixed statistics, which is exactly why the paper's node-level
speedups translate one-to-one into scientific productivity.
"""

from repro.stats.series import (
    autocorrelation_function, autocorrelation_time, blocking_error,
    dmc_efficiency,
)
from repro.stats.online import (
    BlockLevel, OnlineEstimate, OnlineReblocker, OnlineScalarStats,
)

__all__ = [
    "autocorrelation_function",
    "autocorrelation_time",
    "blocking_error",
    "dmc_efficiency",
    "OnlineReblocker",
    "OnlineScalarStats",
    "OnlineEstimate",
    "BlockLevel",
]
