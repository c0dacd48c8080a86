"""Local Hamiltonian terms: kinetic and Coulomb."""

from __future__ import annotations

import numpy as np

from repro.metrics.registry import METRICS


class KineticEnergy:
    """-(1/2) sum_i (nabla_i^2 Psi)/Psi = -(1/2) sum_i (L_i + |G_i|^2),
    where G/L are grad/lap of log Psi accumulated on the ParticleSet."""

    name = "Kinetic"

    def evaluate(self, P, twf) -> float:
        with METRICS.scope("Other"):
            g2 = np.sum(P.G * P.G, axis=1)
            val = -0.5 * float(np.sum(P.L + g2))
            METRICS.record(flops=5.0 * P.n, rbytes=32.0 * P.n,
                           wbytes=8.0)
            return val


class CoulombEE:
    """Electron-electron repulsion sum_{i<j} 1/r_ij over the AA table.

    Uses the freshly-evaluated table rows (which is why the optimized
    code retains the O(N^2) distance storage for Hamiltonian reuse,
    Sec. 7.5).
    """

    name = "ElecElec"

    def __init__(self, table_index: int = 0):
        self.table_index = table_index

    def evaluate(self, P, twf) -> float:
        with METRICS.scope("Other"):
            table = P.distance_tables[self.table_index]
            total = 0.0
            for i in range(P.n):
                row = np.asarray(table.dist_row(i), dtype=np.float64)
                total += float(np.sum(1.0 / row[:i]))
            METRICS.record(flops=2.0 * P.n * P.n / 2,
                           rbytes=8.0 * P.n * P.n / 2, wbytes=8.0)
            return total


class CoulombEI:
    """Electron-ion attraction -sum_{k,I} Z_I / r_kI over the AB table."""

    name = "ElecIon"

    def __init__(self, ion_charges: np.ndarray, table_index: int = 1):
        self.charges = np.asarray(ion_charges, dtype=np.float64)
        self.table_index = table_index

    def evaluate(self, P, twf) -> float:
        with METRICS.scope("Other"):
            table = P.distance_tables[self.table_index]
            total = 0.0
            for k in range(P.n):
                row = np.asarray(table.dist_row(k), dtype=np.float64)
                total -= float(np.sum(self.charges / row))
            METRICS.record(flops=2.0 * P.n * self.charges.size,
                           rbytes=8.0 * P.n * self.charges.size, wbytes=8.0)
            return total


class IonIonEnergy:
    """Constant ion-ion repulsion sum_{I<J} Z_I Z_J / r_IJ (computed once)."""

    name = "IonIon"

    def __init__(self, ions, lattice):
        R = ions.R
        Z = ions.charges()
        n = R.shape[0]
        total = 0.0
        for i in range(n):
            dr = R[i + 1:] - R[i]
            if lattice.periodic:
                dr = lattice.min_image_disp(dr)
            d = np.sqrt(np.sum(dr * dr, axis=1))
            total += float(np.sum(Z[i] * Z[i + 1:] / d))
        self.value = total

    def evaluate(self, P, twf) -> float:
        return self.value
