"""Scalar estimators: accumulation, equilibration detection, reporting.

The drivers hand per-generation scalar samples (E_L, acceptance,
population, Hamiltonian components) to an :class:`EstimatorManager`,
which accumulates weighted block statistics, detects and discards the
equilibration transient, and reports autocorrelation-corrected error
bars — the machinery behind every number a production QMC run prints.
"""

from repro.estimators.scalar import (
    EstimatorManager, ScalarEstimate, equilibration_index,
)

__all__ = ["EstimatorManager", "ScalarEstimate", "equilibration_index"]
