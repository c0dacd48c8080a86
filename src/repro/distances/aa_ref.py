"""Reference AA distance table: packed upper triangle, AoS scalar kernels.

This is Fig. 6(a).  Distances d(i,j) for i<j live in a packed 1D array of
N(N-1)/2 scalars; displacements in a parallel list of TinyVectors.  Every
operation is a per-pair interpreted loop over TinyVector components — the
abstraction-penalty pattern responsible for the Ref profile's DistTable
hot spot.  On acceptance the temporary row is scattered back into the
triangle (N copies at mixed, unaligned offsets).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.containers.tinyvector import TinyVector
from repro.distances.base import BIG_DISTANCE, DistanceTable
from repro.metrics.registry import METRICS


class DistanceTableAARef(DistanceTable):
    """Packed-upper-triangle symmetric table with scalar AoS arithmetic."""

    category = "DistTable-AA"

    def __init__(self, n: int, lattice):
        self.n = n
        self.lattice = lattice
        m = n * (n - 1) // 2
        # Packed storage: pair (i, j), i < j, at index loc(i, j).
        self.U: List[float] = [0.0] * m
        self.dU: List[TinyVector] = [TinyVector.zeros(3) for _ in range(m)]
        # Temporaries for the active move.
        self.temp_r_list: List[float] = [0.0] * n
        self.temp_dr_list: List[TinyVector] = [TinyVector.zeros(3) for _ in range(n)]
        self._active = -1

    @staticmethod
    def loc(i: int, j: int, n: int) -> int:
        """Index of pair (i, j), i < j, in the packed upper triangle."""
        if not 0 <= i < j < n:
            raise IndexError(f"bad pair ({i}, {j}) for n={n}")
        # Row-major upper triangle: row i holds n-1-i entries.
        return i * (2 * n - i - 1) // 2 + (j - i - 1)

    # -- full evaluation -----------------------------------------------------------
    def evaluate(self, P) -> None:
        R = P.R_aos
        if R is None:
            raise RuntimeError("ref distance table requires an AoS layout")
        n = self.n
        lat = self.lattice
        idx = 0
        for i in range(n):
            ri = R[i]
            for j in range(i + 1, n):
                d = lat.min_image_disp_scalar(R[j] - ri)  # r_j - r_i
                self.dU[idx] = d
                self.U[idx] = d.norm()
                idx += 1
        METRICS.record(flops=9.0 * n * (n - 1) / 2,
                       rbytes=24.0 * n * (n - 1) / 2,
                       wbytes=32.0 * n * (n - 1) / 2)

    # -- PbyP protocol -----------------------------------------------------------
    def move(self, P, rnew: np.ndarray, k: int) -> None:
        R = P.R_aos
        rn = TinyVector(rnew)
        lat = self.lattice
        for i in range(self.n):
            if i == k:
                self.temp_r_list[i] = BIG_DISTANCE
                self.temp_dr_list[i] = TinyVector.zeros(3)
                continue
            d = lat.min_image_disp_scalar(R[i] - rn)  # r_i - r_new
            self.temp_dr_list[i] = d
            self.temp_r_list[i] = d.norm()
        self._active = k
        METRICS.record(flops=9.0 * self.n,
                       rbytes=24.0 * self.n, wbytes=32.0 * self.n)

    def update(self, k: int) -> None:
        # Scatter the temp row back into the packed triangle: N-1 copies at
        # unaligned offsets (the unfavorable access pattern of Fig. 6a).
        n = self.n
        for i in range(n):
            if i == k:
                continue
            if i < k:
                idx = self.loc(i, k, n)
                # stored as r_k - r_i: displacement from i to the (new) k
                self.dU[idx] = -self.temp_dr_list[i]
            else:
                idx = self.loc(k, i, n)
                self.dU[idx] = self.temp_dr_list[i].copy()
            self.U[idx] = self.temp_r_list[i]
        self._active = -1
        # Scattered single-element writes into the packed triangle touch a
        # whole cache line each (one for the distance, one for the
        # displacement), so the DRAM traffic is line-granular — the
        # unfavorable pattern Fig. 6(a) calls out.
        METRICS.record(rbytes=64.0 * n, wbytes=128.0 * n)

    # -- consumer access -----------------------------------------------------------
    @property
    def temp_r(self) -> List[float]:
        return self.temp_r_list

    @property
    def temp_dr(self) -> List[TinyVector]:
        return self.temp_dr_list

    def dist_row(self, k: int) -> List[float]:
        """Gathered distances from k to all i (scalar gathers, self=BIG)."""
        n = self.n
        out = [BIG_DISTANCE] * n
        for i in range(n):
            if i == k:
                continue
            idx = self.loc(min(i, k), max(i, k), n)
            out[i] = self.U[idx]
        return out

    def disp_row(self, k: int) -> List[TinyVector]:
        """Gathered displacements r_i - r_k (self = zero vector)."""
        n = self.n
        out = [TinyVector.zeros(3) for _ in range(n)]
        for i in range(n):
            if i == k:
                continue
            if k < i:
                out[i] = self.dU[self.loc(k, i, n)].copy()
            else:
                out[i] = -self.dU[self.loc(i, k, n)]
        return out

    def pair_dist(self, i: int, j: int) -> float:
        """Distance between particles i and j (i != j)."""
        if i == j:
            raise ValueError("self distance is undefined")
        return self.U[self.loc(min(i, j), max(i, j), self.n)]

    @property
    def storage_bytes(self) -> int:
        m = self.n * (self.n - 1) // 2
        return m * 8 + m * 3 * 8  # packed distances + displacements, double
