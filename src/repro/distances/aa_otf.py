"""Compute-on-the-fly AA distance table (Sec. 7.5, final optimization).

Identical storage to the SoA table, but the strided column update is
eliminated: :meth:`set_active` recomputes row k from the *current*
positions (a contiguous vectorized kernel) when the sweep reaches
particle k — before the drift gradient reads it, as QMCPACK's
``ParticleSet::setActive`` does — and :meth:`update` rewrites only row
k.  :meth:`move` computes the proposed row alone.  Rows of other
particles are allowed to go stale during the sweep; the O(N²) storage is
retained and refreshed by :meth:`evaluate` because Hamiltonian objects
reuse the full table several times per measurement.
"""

from __future__ import annotations

from repro.distances.aa_soa import DistanceTableAASoA
from repro.metrics.registry import METRICS


class DistanceTableAAOtf(DistanceTableAASoA):
    """Forward-only table: row k recomputed on demand, no column updates."""

    forward_update = False

    def set_active(self, P, k: int) -> None:
        # Refresh row k from the current positions — this replaces all
        # the column maintenance the SoA table performed on every accept.
        self._row_from(P, P.R[k], self.distances[k], self.displacements[k],
                       k)
        itemsize = self.dtype.itemsize
        METRICS.record(flops=9.0 * self.n,
                       rbytes=24.0 * self.n, wbytes=4.0 * itemsize * self.n)
        METRICS.count("otf_row_recomputes")

    def update(self, k: int) -> None:
        # Contiguous row write only — no strided column traffic.
        self.distances[k, :] = self.temp_r
        self.displacements[k, :, :] = self.temp_dr
        self._active = -1
        itemsize = self.dtype.itemsize
        METRICS.record(rbytes=4.0 * itemsize * self.n,
                       wbytes=4.0 * itemsize * self.np_)
