"""Weighted scalar accumulation with equilibration handling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.stats.series import autocorrelation_time, blocking_error


def equilibration_index(x: np.ndarray, frac_window: float = 0.1) -> int:
    """Index where the series has equilibrated (Wolff/Chodera-style).

    Marginal-standard-error rule: pick the start index t that maximizes
    the effective number of post-t samples, scanned over a geometric set
    of candidates.  Cheap and robust for QMC energy traces that drift
    during warmup and then fluctuate about a plateau.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 8:
        return 0
    candidates = sorted({int(n * f) for f in
                         (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)})
    best_t, best_neff = 0, -1.0
    for t in candidates:
        tail = x[t:]
        if tail.size < 4:
            break
        tau = autocorrelation_time(tail)
        neff = tail.size / tau
        if neff > best_neff:
            best_t, best_neff = t, neff
    return best_t


@dataclass
class ScalarEstimate:
    """A finished estimate: mean, corrected error, and diagnostics."""

    name: str
    mean: float
    error: float
    variance: float
    tau: float
    n_samples: int
    n_equilibration: int

    def __str__(self) -> str:
        return (f"{self.name}: {self.mean:.6f} +- {self.error:.6f} "
                f"(tau={self.tau:.1f}, n={self.n_samples}, "
                f"discarded {self.n_equilibration})")


class EstimatorManager:
    """Accumulates named weighted scalar series and reports estimates."""

    def __init__(self):
        self._samples: Dict[str, List[float]] = {}
        self._weights: Dict[str, List[float]] = {}

    def accumulate(self, name: str, value: float, weight: float = 1.0
                   ) -> None:
        """Record one sample of a named scalar."""
        if weight < 0:
            raise ValueError("weight must be non-negative")
        self._samples.setdefault(name, []).append(float(value))
        self._weights.setdefault(name, []).append(float(weight))

    def accumulate_block(self, name: str, values: np.ndarray,
                         weights: np.ndarray) -> None:
        """Record one sample per walker of a named scalar, in walker
        order — ``accumulate`` over ``zip(values, weights)`` in one
        append."""
        if np.any(np.asarray(weights) < 0):
            raise ValueError("weight must be non-negative")
        self._samples.setdefault(name, []).extend(map(float, values))
        self._weights.setdefault(name, []).extend(map(float, weights))

    def accumulate_many(self, values: Dict[str, float],
                        weight: float = 1.0) -> None:
        for name, v in values.items():
            self.accumulate(name, v, weight)

    def names(self) -> List[str]:
        return sorted(self._samples)

    def series(self, name: str) -> np.ndarray:
        return np.asarray(self._samples[name])

    def estimate(self, name: str, discard_equilibration: bool = True
                 ) -> ScalarEstimate:
        """Weighted mean + autocorrelation/blocking-corrected error."""
        x = np.asarray(self._samples[name], dtype=np.float64)
        w = np.asarray(self._weights[name], dtype=np.float64)
        t0 = equilibration_index(x) if discard_equilibration and \
            x.size >= 8 else 0
        xt, wt = x[t0:], w[t0:]
        wsum = float(np.sum(wt))
        if wsum <= 0 or xt.size == 0:
            return ScalarEstimate(name, float("nan"), float("nan"),
                                  float("nan"), float("nan"), 0, t0)
        mean = float(np.sum(wt * xt) / wsum)
        if xt.size < 2:
            return ScalarEstimate(name, mean, float("nan"), 0.0, 1.0,
                                  xt.size, t0)
        var = float(np.sum(wt * (xt - mean) ** 2) / wsum)
        err = blocking_error(xt)
        tau = autocorrelation_time(xt)
        return ScalarEstimate(name, mean, err, var, tau, xt.size, t0)

    def merge(self, other: "EstimatorManager") -> None:
        """Fold another manager's samples into this one — the crowd-level
        reduction that collects per-thread accumulators after a run."""
        for name, samples in other._samples.items():
            self._samples.setdefault(name, []).extend(samples)
            self._weights.setdefault(name, []).extend(other._weights[name])

    def report(self) -> str:
        return "\n".join(str(self.estimate(n)) for n in self.names())

    def clear(self) -> None:
        self._samples.clear()
        self._weights.clear()
