"""Reference AB (electron-ion) distance table: AoS scalar kernels.

Rows are per target electron; sources (ions) are fixed for the whole run.
The reference implementation walks TinyVectors pair by pair.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.containers.tinyvector import TinyVector
from repro.distances.base import DistanceTable
from repro.metrics.registry import METRICS


class DistanceTableABRef(DistanceTable):
    """Asymmetric table, scalar AoS arithmetic, full row storage."""

    category = "DistTable-AB"

    def __init__(self, source, n_target: int, lattice):
        """``source`` is the ion ParticleSet (positions fixed)."""
        self.source = source
        self.ns = source.n
        self.nt = n_target
        self.lattice = lattice
        self.r: List[List[float]] = [[0.0] * self.ns for _ in range(n_target)]
        self.dr: List[List[TinyVector]] = [
            [TinyVector.zeros(3) for _ in range(self.ns)] for _ in range(n_target)]
        self.temp_r_list: List[float] = [0.0] * self.ns
        self.temp_dr_list: List[TinyVector] = [
            TinyVector.zeros(3) for _ in range(self.ns)]
        self._active = -1

    def evaluate(self, P) -> None:
        R = P.R_aos
        if R is None:
            raise RuntimeError("ref distance table requires an AoS layout")
        S = self.source.R_aos
        if S is None:
            S = [TinyVector(row) for row in self.source.R]
        lat = self.lattice
        for k in range(self.nt):
            rk = R[k]
            row_r = self.r[k]
            row_dr = self.dr[k]
            for I in range(self.ns):
                d = lat.min_image_disp_scalar(S[I] - rk)  # ion - electron
                row_dr[I] = d
                row_r[I] = d.norm()
        METRICS.record(flops=9.0 * self.nt * self.ns,
                       rbytes=24.0 * (self.nt + self.ns),
                       wbytes=32.0 * self.nt * self.ns)

    def move(self, P, rnew: np.ndarray, k: int) -> None:
        rn = TinyVector(rnew)
        S = self.source.R_aos
        if S is None:
            S = [TinyVector(row) for row in self.source.R]
        lat = self.lattice
        for I in range(self.ns):
            d = lat.min_image_disp_scalar(S[I] - rn)
            self.temp_dr_list[I] = d
            self.temp_r_list[I] = d.norm()
        self._active = k
        METRICS.record(flops=9.0 * self.ns,
                       rbytes=24.0 * self.ns, wbytes=32.0 * self.ns)

    def update(self, k: int) -> None:
        self.r[k] = list(self.temp_r_list)
        self.dr[k] = [tv.copy() for tv in self.temp_dr_list]
        self._active = -1
        METRICS.record(rbytes=32.0 * self.ns, wbytes=32.0 * self.ns)

    @property
    def temp_r(self) -> List[float]:
        return self.temp_r_list

    @property
    def temp_dr(self) -> List[TinyVector]:
        return self.temp_dr_list

    def dist_row(self, k: int) -> List[float]:
        return self.r[k]

    def disp_row(self, k: int) -> List[TinyVector]:
        return self.dr[k]

    @property
    def storage_bytes(self) -> int:
        return self.nt * self.ns * 8 * 4  # distances + 3-vector displacements
