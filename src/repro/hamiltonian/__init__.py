"""Hamiltonian terms and the local-energy evaluator (Eq. 7).

E_L = -(1/2) sum_i (L_i + |G_i|^2) + sum_{i<j} 1/r_ij
      - sum_{k,I} Z_I / r_kI + V_II + V_NL

The non-local pseudopotential term approximates the angular integral by
a quadrature on a spherical shell around each ion (Fahy et al.),
requiring wavefunction *ratio* evaluations for every electron inside an
ion's cutoff — the ratio-heavy code path the paper's miniapps exercise.

Periodic Coulomb sums use the minimum-image convention, DESIGN.md's
substitution for QMCPACK's Ewald ``CoulombPBC``: the pair sums read the
same distance tables, so the kernels the paper measures do the same
work.
"""

from repro.hamiltonian.terms import (
    KineticEnergy, CoulombEE, CoulombEI, IonIonEnergy,
)
from repro.hamiltonian.nlpp import NonLocalPP, sphere_quadrature
from repro.hamiltonian.local_energy import Hamiltonian

__all__ = [
    "KineticEnergy", "CoulombEE", "CoulombEI", "IonIonEnergy",
    "NonLocalPP", "sphere_quadrature", "Hamiltonian",
]
