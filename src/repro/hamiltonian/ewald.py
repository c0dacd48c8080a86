"""Ewald summation for periodic Coulomb interactions.

The minimum-image sums in :mod:`repro.hamiltonian.terms` are the cheap
approximation; production QMC codes evaluate the periodic Coulomb
interaction with an Ewald decomposition (QMCPACK's ``CoulombPBCAA/AB``).
This module implements the classic split

    1/r  =  erfc(alpha r)/r  (real space, short ranged)
          + erf(alpha r)/r   (reciprocal space, smooth)

for a neutral collection of point charges in a general cell:

    E = E_real + E_recip + E_self + E_background

* real space: sum over minimum images (the cutoff is chosen so
  erfc(alpha r_ws) is negligible);
* reciprocal space: sum over G-vectors with the Gaussian screening
  factor exp(-G^2/4 alpha^2);
* self term: -alpha/sqrt(pi) sum q_i^2;
* background: -pi/(2 alpha^2 V) (sum q_i)^2 — zero for neutral systems.

Validated against the Madelung constant of rock salt in the tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from repro.lattice.cell import CrystalLattice
from repro.metrics.registry import METRICS


class EwaldHandler:
    """Precomputed Ewald machinery for one cell.

    Parameters
    ----------
    lattice:
        Periodic simulation cell.
    alpha:
        Splitting parameter; default scales with the Wigner-Seitz radius
        so the real-space part converges within the first shell.
    gcut_factor:
        Reciprocal cutoff |G|max = gcut_factor * (2 alpha), giving the
        screening factor exp(-gcut^2 / 4 alpha^2) ~ e^{-gcut_factor^2}.
    """

    def __init__(self, lattice: CrystalLattice, alpha: float | None = None,
                 gcut_factor: float = 3.2):
        if not lattice.periodic:
            raise ValueError("Ewald requires a periodic cell")
        self.lattice = lattice
        rws = lattice.wigner_seitz_radius
        # erfc(alpha * rws) ~ 1e-7 with alpha * rws ~ 3.8
        self.alpha = alpha if alpha is not None else 3.8 / rws
        self.gcut = gcut_factor * 2.0 * self.alpha
        self.gvecs, self.gfactors = self._build_gspace()

    def _build_gspace(self):
        """Enumerate G != 0 with |G| <= gcut and their Ewald factors
        4 pi / (V G^2) exp(-G^2 / 4 alpha^2) (half space: use cos form
        over the full set, which double counts symmetric pairs — so keep
        the full set and the plain 1/2 prefactor folded into usage)."""
        recip = self.lattice.reciprocal
        # Bounding box of integer indices.
        nmax = [int(np.ceil(self.gcut / np.linalg.norm(recip[i]) * 1.5)) + 1
                for i in range(3)]
        ij = np.mgrid[-nmax[0]:nmax[0] + 1,
                      -nmax[1]:nmax[1] + 1,
                      -nmax[2]:nmax[2] + 1].reshape(3, -1).T
        ij = ij[np.any(ij != 0, axis=1)]
        g = ij @ recip
        g2 = np.sum(g * g, axis=1)
        keep = g2 <= self.gcut ** 2
        g = g[keep]
        g2 = g2[keep]
        vol = self.lattice.volume
        factors = (4.0 * math.pi / vol) * np.exp(
            -g2 / (4.0 * self.alpha ** 2)) / g2
        return g, factors

    # -- energy pieces ------------------------------------------------------------
    def real_space(self, R: np.ndarray, q: np.ndarray) -> float:
        """Short-range erfc part over minimum images, i<j pairs."""
        n = R.shape[0]
        total = 0.0
        for i in range(n):
            dr = self.lattice.min_image_disp(R[i + 1:] - R[i])
            d = np.sqrt(np.sum(dr * dr, axis=1))
            total += float(np.sum(q[i] * q[i + 1:] * erfc(self.alpha * d)
                                  / d))
        METRICS.record(flops=12.0 * n * n / 2, rbytes=8.0 * n * n / 2,
                       wbytes=8.0)
        return total

    def reciprocal_space(self, R: np.ndarray, q: np.ndarray) -> float:
        """Smooth long-range part via structure factors."""
        phases = R @ self.gvecs.T  # (n, ngvec)
        re = q @ np.cos(phases)
        im = q @ np.sin(phases)
        s2 = re * re + im * im
        METRICS.record(flops=6.0 * R.shape[0] * self.gvecs.shape[0],
                       rbytes=8.0 * self.gvecs.shape[0], wbytes=8.0)
        return 0.5 * float(np.sum(self.gfactors * s2))

    def self_energy(self, q: np.ndarray) -> float:
        return -self.alpha / math.sqrt(math.pi) * float(np.sum(q * q))

    def background(self, q: np.ndarray) -> float:
        qtot = float(np.sum(q))
        return -math.pi / (2.0 * self.alpha ** 2 * self.lattice.volume) \
            * qtot * qtot

    def energy(self, R: np.ndarray, q: np.ndarray) -> float:
        """Total periodic Coulomb energy of charges q at positions R."""
        R = np.asarray(R, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        with METRICS.scope("Other"):
            return (self.real_space(R, q) + self.reciprocal_space(R, q)
                    + self.self_energy(q) + self.background(q))


class EwaldCoulomb:
    """Hamiltonian term: full Ewald electron-electron + electron-ion +
    ion-ion energy (the production CoulombPBC path).

    Note: evaluates from particle positions each measurement; the
    minimum-image terms in :mod:`repro.hamiltonian.terms` remain the
    default for speed, this term is the high-accuracy option.
    """

    name = "EwaldCoulomb"

    def __init__(self, ions, lattice: CrystalLattice,
                 handler: EwaldHandler | None = None):
        self.ions = ions
        self.handler = handler if handler is not None \
            else EwaldHandler(lattice)
        # Ion-ion part is constant: compute once.
        self._ion_energy = self.handler.energy(ions.R, ions.charges())

    def evaluate(self, P, twf) -> float:
        R = np.concatenate([P.R, self.ions.R])
        q = np.concatenate([P.charges(), self.ions.charges()])
        total = self.handler.energy(R, q)
        return total

    @property
    def ion_ion_energy(self) -> float:
        return self._ion_energy
