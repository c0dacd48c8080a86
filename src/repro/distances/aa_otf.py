"""Compute-on-the-fly AA distance table (Sec. 7.5, final optimization).

Identical storage to the SoA table, but the strided column update is
eliminated: :meth:`move` first recomputes row k from the *current*
positions (a contiguous vectorized kernel) before computing the proposed
row, and :meth:`update` rewrites only row k.  Rows of other particles are
allowed to go stale during the sweep; the O(N²) storage is retained and
refreshed by :meth:`evaluate` because Hamiltonian objects reuse the full
table several times per measurement.
"""

from __future__ import annotations

import numpy as np

from repro.distances.aa_soa import DistanceTableAASoA
from repro.metrics.registry import METRICS
from repro.perfmodel.opcount import OPS


class DistanceTableAAOtf(DistanceTableAASoA):
    """Forward-only table: row k recomputed on demand, no column updates."""

    forward_update = False

    def move(self, P, rnew: np.ndarray, k: int) -> None:
        # Refresh row k from the current position first — this replaces all
        # the column maintenance the SoA table performed on every accept.
        rk = P.R[k]
        self._row_from(P, rk, self.distances[k], self.displacements[k], k)
        itemsize = self.dtype.itemsize
        OPS.record(self.category, flops=9.0 * self.n,
                   rbytes=24.0 * self.n, wbytes=4.0 * itemsize * self.n)
        METRICS.count("otf_row_recomputes")
        METRICS.add_bytes(4 * itemsize * self.n)
        super().move(P, rnew, k)

    def update(self, k: int) -> None:
        # Contiguous row write only — no strided column traffic.
        self.distances[k, :] = self.temp_r
        self.displacements[k, :, :] = self.temp_dr
        self._active = -1
        itemsize = self.dtype.itemsize
        OPS.record(self.category,
                   rbytes=4.0 * itemsize * self.n,
                   wbytes=4.0 * itemsize * self.np_)
