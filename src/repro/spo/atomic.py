"""Analytic atomic (Slater-type) orbitals for open-boundary systems.

QMC engines are usually validated on systems with known answers before
touching solids; the hydrogen atom is the canonical one: with the exact
1s orbital ``exp(-r)`` the local energy is -1/2 hartree at every
configuration (zero variance), and with a deliberately wrong exponent
VMC sits above -1/2 while DMC projects back to it.  This module
provides the orbitals; the integration tests run those checks against
this package's full Hamiltonian/driver stack.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.metrics.registry import METRICS


class SlaterOrbitalSPOSet:
    """1s Slater orbitals ``phi_I(r) = exp(-zeta_I |r - R_I|)`` centered
    on a set of nuclei (open boundary conditions).

    Derivatives (for r != R_I):
        grad phi = -zeta * phi * u,      u = (r - R_I)/|r - R_I|
        lap  phi = phi * (zeta^2 - 2 zeta / |r - R_I|)
    """

    def __init__(self, centers: np.ndarray, zetas: Sequence[float]):
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != 3:
            raise ValueError(f"centers must be (M, 3), got {centers.shape}")
        self.centers = centers
        self.zetas = np.asarray(zetas, dtype=np.float64)
        if self.zetas.shape != (centers.shape[0],):
            raise ValueError("need one exponent per center")
        if np.any(self.zetas <= 0):
            raise ValueError("exponents must be positive")
        self.norb = centers.shape[0]

    def _dists(self, r: np.ndarray):
        dr = np.asarray(r, dtype=np.float64) - self.centers  # (M, 3)
        d = np.sqrt(np.sum(dr * dr, axis=1))
        return dr, np.maximum(d, 1e-300)

    def evaluate_v(self, r: np.ndarray) -> np.ndarray:
        with METRICS.scope("Bspline-v"):
            _, d = self._dists(r)
            return np.exp(-self.zetas * d)

    def evaluate_vgl(self, r: np.ndarray):
        with METRICS.scope("Bspline-vgh"):
            dr, d = self._dists(r)
            v = np.exp(-self.zetas * d)
            u = dr / d[:, None]
            g = -(self.zetas * v)[:, None] * u
            lap = v * (self.zetas ** 2 - 2.0 * self.zetas / d)
        return v, g, lap


class LCAOSpoSet:
    """Molecular orbitals as linear combinations of Slater 1s primitives.

    ``coefficients`` is (norb, nprimitive): orbital m is
    ``sum_p C[m, p] * exp(-zeta_p |r - R_p|)`` — enough for the classic
    small-molecule validation systems (H2+, H2, HeH+).
    """

    def __init__(self, primitives: SlaterOrbitalSPOSet,
                 coefficients: np.ndarray):
        self.primitives = primitives
        C = np.asarray(coefficients, dtype=np.float64)
        if C.ndim != 2 or C.shape[1] != primitives.norb:
            raise ValueError(
                f"coefficients must be (norb, {primitives.norb})")
        self.C = C
        self.norb = C.shape[0]

    def evaluate_v(self, r: np.ndarray) -> np.ndarray:
        return self.C @ self.primitives.evaluate_v(r)

    def evaluate_vgl(self, r: np.ndarray):
        v, g, lap = self.primitives.evaluate_vgl(r)
        return self.C @ v, self.C @ g, self.C @ lap
