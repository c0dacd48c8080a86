"""SoA AB (electron-ion) distance table: vectorized rows over ion Rsoa.

Sources are fixed, so no column bookkeeping exists at all — acceptance is
a single contiguous row write.  The ions' SoA container is built once and
reused for the whole calculation (Sec. 7.3).
"""

from __future__ import annotations

import numpy as np

from repro.backend import active
from repro.containers.aligned import aligned_empty, padded_size
from repro.containers.vsc import VectorSoaContainer
from repro.distances.base import DistanceTable
from repro.metrics.registry import METRICS
from repro.precision.policy import resolve_value_dtype


class DistanceTableABSoA(DistanceTable):
    """Asymmetric table over SoA source positions, vectorized kernels."""

    category = "DistTable-AB"

    def __init__(self, source, n_target: int, lattice, dtype=None):
        self.source = source
        self.ns = source.n
        self.nt = n_target
        self.lattice = lattice
        self.dtype = resolve_value_dtype(dtype)
        self.nsp = padded_size(self.ns, self.dtype)
        # Fixed ion positions in SoA, shared across walkers/threads.
        # They are read into accumulation-precision intermediates, so the
        # shared buffer stays double regardless of the table policy.
        if source.Rsoa is not None and source.Rsoa.dtype == np.float64:
            self._src_soa = source.Rsoa.data
        else:
            vsc = VectorSoaContainer(
                self.ns, 3, dtype=np.float64)
            vsc.copy_in(source.R)
            self._src_soa = vsc.data
        self.distances = aligned_empty((self.nt, self.nsp), self.dtype)
        self.distances[...] = 0
        self.displacements = aligned_empty((self.nt, 3, self.nsp), self.dtype)
        self.displacements[...] = 0
        self.temp_r = np.zeros(self.nsp, dtype=self.dtype)
        self.temp_dr = np.zeros((3, self.nsp), dtype=self.dtype)
        self._active = -1

    def _row_from(self, rk: np.ndarray, out_r: np.ndarray,
                  out_dr: np.ndarray) -> None:
        # The crowd-wide ``ab_row`` kernel at W = 1 (accumulation
        # precision); the assignments perform the policy downcast.
        ns = self.ns
        r, dr = active().ab_row(self._src_soa[:, :ns], rk[None],
                                self.lattice)
        out_dr[:, :ns] = np.asarray(dr)[0]
        out_r[:ns] = np.asarray(r)[0]

    def evaluate(self, P) -> None:
        # The crowd-wide all-pairs kernel at W = 1: [k, I] = ion - electron.
        dist, disp = active().ab_pairs(self.source.R, P.R[None], self.lattice)
        self.distances[:, : self.ns] = np.asarray(dist)[0]
        self.displacements[:, :, : self.ns] = np.asarray(disp)[0]
        itemsize = self.dtype.itemsize
        METRICS.record(flops=9.0 * self.nt * self.ns,
                       rbytes=24.0 * (self.nt + self.ns),
                       wbytes=4.0 * itemsize * self.nt * self.ns)

    def move(self, P, rnew: np.ndarray, k: int) -> None:
        # Proposed position promoted to accumulation precision for the
        # min-image math.
        rk = np.asarray(rnew, dtype=np.float64)
        self._row_from(rk, self.temp_r, self.temp_dr)
        self._active = k
        itemsize = self.dtype.itemsize
        METRICS.record(flops=9.0 * self.ns,
                       rbytes=24.0 * self.ns, wbytes=4.0 * itemsize * self.ns)

    def update(self, k: int) -> None:
        self.distances[k, :] = self.temp_r
        self.displacements[k, :, :] = self.temp_dr
        self._active = -1
        itemsize = self.dtype.itemsize
        METRICS.record(rbytes=4.0 * itemsize * self.ns,
                       wbytes=4.0 * itemsize * self.nsp)

    def dist_row(self, k: int) -> np.ndarray:
        return self.distances[k, : self.ns]

    def disp_row(self, k: int) -> np.ndarray:
        return self.displacements[k, :, : self.ns]

    @property
    def storage_bytes(self) -> int:
        return self.distances.nbytes + self.displacements.nbytes
