"""SoA AA distance table with the forward-update scheme (Fig. 6b).

Full ``N x Np`` row storage (memory roughly doubled vs the packed
triangle — the compromise the paper makes) buys contiguous, padded,
vectorizable rows.  On acceptance of the k-th move:

* row k is overwritten contiguously from the temporaries;
* only the k' > k entries of column k are updated (strided by Np), since
  the ordered PbyP sweep never reads d(k', k) for k' < k again before the
  next full evaluation.

Invariant maintained during a sweep: when the sweep reaches particle k,
``dist_row(k)`` is correct.  Rows of already-moved particles may hold
stale entries for later-moved partners; :meth:`evaluate` (called before
measurements) restores the full table.
"""

from __future__ import annotations

import numpy as np

from repro.backend import active
from repro.containers.aligned import aligned_empty, padded_size
from repro.distances.base import BIG_DISTANCE, DistanceTable
from repro.metrics.registry import METRICS
from repro.precision.policy import resolve_value_dtype


class DistanceTableAASoA(DistanceTable):
    """Symmetric table over SoA positions, vectorized rows, forward update."""

    category = "DistTable-AA"
    forward_update = True

    def __init__(self, n: int, lattice, dtype=None):
        self.n = n
        self.lattice = lattice
        self.dtype = resolve_value_dtype(dtype)
        self.np_ = padded_size(n, self.dtype)
        # distances[k, i] = |min_image(r_i - r_k)|; padding/diagonal = BIG.
        self.distances = aligned_empty((n, self.np_), self.dtype)
        self.distances[...] = BIG_DISTANCE
        # displacements[k, :, i] = min_image(r_i - r_k); padding = 0.
        self.displacements = aligned_empty((n, 3, self.np_), self.dtype)
        self.displacements[...] = 0
        self.temp_r = np.full(self.np_, BIG_DISTANCE, dtype=self.dtype)
        self.temp_dr = np.zeros((3, self.np_), dtype=self.dtype)
        self._active = -1

    # -- vector kernel ---------------------------------------------------------
    def _row_from(self, P, rk: np.ndarray, out_r: np.ndarray,
                  out_dr: np.ndarray, self_index: int) -> None:
        """Distances/displacements from point ``rk`` to all particles.

        The crowd-wide ``aa_row`` kernel at W = 1 — one contiguous
        vector operation per Cartesian component over the Rsoa rows, in
        accumulation precision; the assignments into the out views
        perform the policy downcast.
        """
        n = self.n
        r, dr = active().aa_row(P.Rsoa.data[None, :, :n], rk[None],
                                self.lattice, self_index)
        out_dr[:, :n] = np.asarray(dr)[0]
        out_r[:n] = np.asarray(r)[0]

    # -- full evaluation -----------------------------------------------------------
    def evaluate(self, P) -> None:
        # The crowd-wide all-pairs kernel at W = 1 (diagonal masked to
        # (BIG, 0) inside; the assignments downcast).
        n = self.n
        dist, disp = active().aa_pairs(P.R[None], self.lattice)
        self.distances[:, :n] = np.asarray(dist)[0]
        self.displacements[:, :, :n] = np.asarray(disp)[0]
        itemsize = self.dtype.itemsize
        METRICS.record(flops=9.0 * n * n,
                       rbytes=24.0 * n, wbytes=4.0 * itemsize * n * n)

    # -- PbyP protocol -----------------------------------------------------------
    def move(self, P, rnew: np.ndarray, k: int) -> None:
        # Proposed position promoted to accumulation precision for the
        # min-image math.
        rk = np.asarray(rnew, dtype=np.float64)
        self._row_from(P, rk, self.temp_r, self.temp_dr, k)
        self._active = k
        itemsize = self.dtype.itemsize
        METRICS.record(flops=9.0 * self.n,
                       rbytes=(24.0 + 0.0) * self.n,
                       wbytes=4.0 * itemsize * self.n)

    def update(self, k: int) -> None:
        n = self.n
        # Contiguous row write ...
        self.distances[k, :] = self.temp_r
        self.displacements[k, :, :] = self.temp_dr
        # ... plus the forward (k' > k only) strided column update.  Note
        # the sign flip: row k' stores r_k - r_k' = -(r_k' - r_k_new).
        if k + 1 < n:
            self.distances[k + 1:n, k] = self.temp_r[k + 1:n]
            self.displacements[k + 1:n, :, k] = -self.temp_dr[:, k + 1:n].T
        self._active = -1
        itemsize = self.dtype.itemsize
        METRICS.record(rbytes=4.0 * itemsize * n,
                       wbytes=4.0 * itemsize * (self.np_ + (n - k)))
        METRICS.count("forward_update_rows")

    # -- consumer access -----------------------------------------------------------
    def dist_row(self, k: int) -> np.ndarray:
        return self.distances[k, : self.n]

    def disp_row(self, k: int) -> np.ndarray:
        return self.displacements[k, :, : self.n]

    def pair_dist(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("self distance is undefined")
        return float(self.distances[i, j])

    @property
    def storage_bytes(self) -> int:
        return self.distances.nbytes + self.displacements.nbytes
