"""Walker-batched SoA distance tables.

Same forward-update / compute-on-the-fly schemes as
:mod:`repro.distances`, with every kernel widened by a leading walker
axis: the per-walker row kernel's one-vector-op-per-component becomes
one-vector-op-per-component *over the whole crowd*.

Bitwise contract: the per-walker tables (`DistanceTableAASoA` /
`DistanceTableAAOtf` / `DistanceTableABSoA`) call the same backend row
and pair kernels at W = 1, so the differential suite can demand exact
equality of the rows, not just closeness.

Carried state: storage is float64, as on the whole batched stack, and
every table holds, between generations, exactly the bits a from-scratch
pair pass over ``R`` would give, so a DMC generation re-derives nothing
it already has.  ``settle`` (measure) restores that state after a sweep
by the cheapest exact means, ``gather`` (after the DMC comb) copies
each slot's table from the slot its walker came from.  The
compute-on-the-fly AA table carries nothing: it holds one active row
and computes every other row from ``R`` when it is read.
"""

from __future__ import annotations

import numpy as np

from repro.backend import active
from repro.batched.walkerbatch import commit_rows
from repro.containers.aligned import aligned_empty, padded_size
from repro.distances.base import BIG_DISTANCE
from repro.metrics.registry import METRICS


def _batched_row_from(soa: np.ndarray, n: int, rk: np.ndarray, lattice,
                      out_r: np.ndarray, out_dr: np.ndarray,
                      self_index: int = -1) -> None:
    """Distances/displacements from each walker's point ``rk[w]`` to all
    of that walker's particles.

    ``soa`` is the (W, 3, Np) position block, ``rk`` a (W, 3) block of
    centers; outputs are (W, Np) and (W, 3, Np) views.  The arithmetic
    lives in the active backend's ``aa_row`` kernel, the one the
    per-walker tables call.
    """
    r, dr = active().aa_row(soa[:, :, :n], rk, lattice, self_index)
    out_dr[:, :, :n] = np.asarray(dr)
    out_r[:, :n] = np.asarray(r)


class _PairTable:
    """The from-scratch pass and the carried-state protocol the AA and
    AB tables share; a subclass supplies ``_pairs`` (one pair kernel
    call over a (w, nt, 3) position block) and ``settle``."""

    #: storage element type of every batched table
    dtype = np.dtype(np.float64)

    def evaluate(self, batch) -> None:
        """From-scratch recompute of all W tables from the canonical R."""
        self._fill(batch.R, slice(None))

    def set_active(self, batch, k: int) -> None:
        """Row ``k`` is read next (drift, then ratio); the forward-update
        AA and the AB tables keep it current, so nothing to do."""

    def _fill(self, R: np.ndarray, slots) -> None:
        """One pair pass over the walkers ``R`` into table ``slots``."""
        dist, disp = self._pairs(R)
        self.distances[slots, :, : self.n] = np.asarray(dist)
        self.displacements[slots, :, :, : self.n] = np.asarray(disp)

    def gather(self, batch, src: np.ndarray) -> None:
        """Resync after the DMC comb: slot ``w`` now holds the walker
        that sat in slot ``src[w]`` of this crowd (``-1``: in another
        crowd).  The table copies the source slots' slices — a gather,
        no arithmetic — and runs one pair pass over the ``-1`` slots
        only."""
        moved = np.flatnonzero((src >= 0) & (src != np.arange(self.nw)))
        if moved.size:
            self.distances[moved] = self.distances[src[moved]]
            self.displacements[moved] = self.displacements[src[moved]]
            nbytes = float(self.storage_bytes) * moved.size / self.nw
            METRICS.record(rbytes=nbytes, wbytes=nbytes)
        foreign = np.flatnonzero(src < 0)
        if foreign.size:
            self._fill(batch.R[foreign], foreign)


class _AARows:
    """What both AA tables share: the row kernel, run for the proposed
    position of a move into the temporaries ``temp_r``/``temp_dr``."""

    category = "DistTable-AA"
    dtype = np.dtype(np.float64)

    def __init__(self, nwalkers: int, n: int, lattice):
        self.nw = int(nwalkers)
        self.n = int(n)
        self.lattice = lattice
        self.np_ = padded_size(n, self.dtype)
        self.temp_r = np.full((self.nw, self.np_), BIG_DISTANCE,
                              dtype=self.dtype)
        self.temp_dr = np.zeros((self.nw, 3, self.np_), dtype=self.dtype)

    def _row_into(self, batch, rk: np.ndarray, k: int, out_r: np.ndarray,
                  out_dr: np.ndarray) -> None:
        """Row from the (W, 3) centers ``rk`` to every walker's particles
        (particle ``k``'s own column masked) into ``out_r``/``out_dr``."""
        _batched_row_from(batch.Rsoa, self.n, rk, self.lattice,
                          out_r, out_dr, k)
        METRICS.record(flops=9.0 * self.nw * self.n,
                       rbytes=24.0 * self.nw * self.n,
                       wbytes=4.0 * self.dtype.itemsize * self.nw * self.n)

    def move(self, batch, rnew: np.ndarray, k: int) -> None:
        """Fill the temporaries for all W proposed moves of particle k."""
        self._row_into(batch, np.asarray(rnew, dtype=np.float64), k,
                       self.temp_r, self.temp_dr)

    def temp_rows(self) -> np.ndarray:
        return self.temp_r[:, : self.n]

    def temp_disp_rows(self) -> np.ndarray:
        return self.temp_dr[:, :, : self.n]


class BatchedDistTableAA(_AARows, _PairTable):
    """Symmetric electron-electron table over a WalkerBatch, forward update.

    Storage is ``(W, N, Np)`` distances / ``(W, N, 3, Np)`` displacements
    — W copies of the per-walker table, contiguous so the accept-commit
    writes whole rows across the accepted subset of the crowd.
    """

    forward_update = True

    def __init__(self, nwalkers: int, n: int, lattice):
        super().__init__(nwalkers, n, lattice)
        #: strict upper triangle, the part ``settle`` mirrors
        self._upper = np.triu(np.ones((n, n), dtype=bool), 1)
        self.distances = aligned_empty((self.nw, n, self.np_), self.dtype)
        self.distances[...] = BIG_DISTANCE
        self.displacements = aligned_empty((self.nw, n, 3, self.np_),
                                           self.dtype)
        self.displacements[...] = 0

    # -- from-scratch and carried state -------------------------------------------
    def _pairs(self, R: np.ndarray):
        dist, disp = active().aa_pairs(R, self.lattice)
        nw, n = R.shape[0], self.n
        METRICS.record(flops=9.0 * nw * n * n,
                       rbytes=24.0 * nw * n,
                       wbytes=4.0 * self.dtype.itemsize * nw * n * n)
        return dist, disp

    def settle(self, batch) -> None:
        """Bring every table to what :meth:`evaluate` gives, after a sweep.

        The forward update leaves the strict lower triangle current:
        entry (i, j), i > j, is rewritten by whichever of i's row and
        j's column commit came last.  The upper triangle is its mirror —
        distances copied, displacements negated, both exact — when the
        lattice's minimum image is odd (``CrystalLattice.min_image_odd``);
        otherwise one pair pass.
        """
        if not self.lattice.min_image_odd:
            self.evaluate(batch)
            return
        n = self.n
        dist = self.distances[:, :, :n]
        np.copyto(dist, dist.transpose(0, 2, 1).copy(), where=self._upper)
        disp = self.displacements[:, :, :, :n]
        np.copyto(disp, np.negative(disp.transpose(0, 3, 2, 1)),
                  where=self._upper[:, None, :])
        nbytes = 2.0 * self.dtype.itemsize * self.nw * n * (n - 1)
        METRICS.record(rbytes=nbytes, wbytes=nbytes)

    # -- PbyP protocol -----------------------------------------------------------
    def update(self, k: int, accepted: np.ndarray) -> None:
        """Commit row k (and the forward column) for the accepted subset."""
        n = self.n
        commit_rows(self.distances[:, k], self.temp_r, accepted)
        commit_rows(self.displacements[:, k], self.temp_dr, accepted)
        if k + 1 < n:
            commit_rows(self.distances[:, k + 1:n, k],
                        self.temp_r[:, k + 1:n], accepted)
            commit_rows(self.displacements[:, k + 1:n, :, k],
                        self.temp_dr[:, :, k + 1:n].transpose(0, 2, 1),
                        accepted, negate=True)
        itemsize = self.dtype.itemsize
        nacc = int(np.count_nonzero(accepted))
        METRICS.record(rbytes=4.0 * itemsize * nacc * n,
                       wbytes=4.0 * itemsize * nacc * (self.np_ + (n - k)))
        METRICS.count("forward_update_rows", nacc)

    # -- consumer access ---------------------------------------------------------
    def dist_rows(self, k: int) -> np.ndarray:
        """(W, N) distance rows for particle k across the crowd."""
        return self.distances[:, k, : self.n]

    def disp_rows(self, k: int) -> np.ndarray:
        """(W, 3, N) displacement rows for particle k across the crowd."""
        return self.displacements[:, k, :, : self.n]

    def rows(self, batch):
        """Every particle's ``(dist_rows(i), disp_rows(i))`` in particle
        order: the stored rows, as views."""
        for i in range(self.n):
            yield self.dist_rows(i), self.disp_rows(i)

    @property
    def storage_bytes(self) -> int:
        return self.distances.nbytes + self.displacements.nbytes


class BatchedDistTableAAOtf(_AARows):
    """Compute-on-the-fly flavor, O(N) per walker — the batched twin of
    ``DistanceTableAAOtf`` with the paper's 5N-per-walker state.

    The table holds one active row, ``(W, Np)`` distances and
    ``(W, 3, Np)`` displacements, plus the move temporaries, and nothing
    else: :meth:`set_active` computes row k from the current positions
    before the drift reads it (this refresh replaces all the column
    maintenance of the forward-update table), an accepted move commits
    its proposed row into it, and :meth:`rows` streams every row through
    the same row kernel, each computed once, for the measure.  No pair
    pass runs and nothing is carried, so ``evaluate``, ``settle`` and
    ``gather`` have nothing to compute.
    """

    forward_update = False

    def __init__(self, nwalkers: int, n: int, lattice):
        super().__init__(nwalkers, n, lattice)
        self.row_r = np.full((self.nw, self.np_), BIG_DISTANCE,
                             dtype=self.dtype)
        self.row_dr = np.zeros((self.nw, 3, self.np_), dtype=self.dtype)
        #: the particle whose row the active row holds; -1: none (the
        #: positions changed behind the table)
        self.active_k = -1

    def evaluate(self, batch) -> None:
        """Nothing stored to rebuild: rows are computed when read."""
        self.active_k = -1

    def settle(self, batch) -> None:
        """The active row is current after the sweep; nothing else is
        held."""

    def gather(self, batch, src: np.ndarray) -> None:
        """The comb moved walkers between slots: drop the active row."""
        self.active_k = -1

    def _refresh(self, batch, k: int) -> None:
        self._row_into(batch, batch.R[:, k], k, self.row_r, self.row_dr)
        self.active_k = k

    def set_active(self, batch, k: int) -> None:
        """Compute row k from the current positions, for every walker."""
        self._refresh(batch, k)
        METRICS.count("otf_row_recomputes", self.nw)

    def update(self, k: int, accepted: np.ndarray) -> None:
        """Commit the proposed row into the active row (which must be
        row k) for the accepted subset."""
        self._check_active(k)
        commit_rows(self.row_r, self.temp_r, accepted)
        commit_rows(self.row_dr, self.temp_dr, accepted)
        itemsize = self.dtype.itemsize
        nacc = int(np.count_nonzero(accepted))
        METRICS.record(rbytes=4.0 * itemsize * nacc * self.n,
                       wbytes=4.0 * itemsize * nacc * self.np_)

    # -- consumer access ---------------------------------------------------------
    def _check_active(self, k: int) -> None:
        if k != self.active_k:
            raise ValueError(
                f"{type(self).__name__} holds row {self.active_k}, not "
                f"row {k}: call set_active(batch, {k}) first")

    def dist_rows(self, k: int) -> np.ndarray:
        """(W, N) distance rows of the active particle k."""
        self._check_active(k)
        return self.row_r[:, : self.n]

    def disp_rows(self, k: int) -> np.ndarray:
        """(W, 3, N) displacement rows of the active particle k."""
        self._check_active(k)
        return self.row_dr[:, :, : self.n]

    def rows(self, batch):
        """Every particle's ``(dist_rows(i), disp_rows(i))`` in particle
        order, each row computed once into the active row; a yielded
        pair is valid until the next one is drawn."""
        for i in range(self.n):
            with METRICS.scope(self.category):
                self._refresh(batch, i)
            yield self.row_r[:, : self.n], self.row_dr[:, :, : self.n]

    @property
    def storage_bytes(self) -> int:
        """The active row and the move temporaries: O(N) per walker."""
        return (self.row_r.nbytes + self.row_dr.nbytes
                + self.temp_r.nbytes + self.temp_dr.nbytes)


class BatchedDistTableAB(_PairTable):
    """Electron-ion table over a WalkerBatch.

    The ion positions are fixed and shared by every walker (one
    double-precision SoA block for the whole crowd — Sec. 7.3's shared
    read-only resource), so acceptance is a contiguous row write into the
    accepted walkers' slabs and there is no column bookkeeping at all.
    """

    category = "DistTable-AB"

    def __init__(self, source, nwalkers: int, n_target: int, lattice):
        self.source = source
        self.nw = int(nwalkers)
        self.ns = source.n
        self.nt = int(n_target)
        self.n = self.ns
        self.lattice = lattice
        self.nsp = padded_size(self.ns, self.dtype)
        # Shared fixed sources (read-only).
        src = np.empty((3, self.ns), dtype=np.float64)
        src[...] = source.R.T
        self._src_soa = src
        self.distances = aligned_empty((self.nw, self.nt, self.nsp),
                                       self.dtype)
        self.distances[...] = 0
        self.displacements = aligned_empty((self.nw, self.nt, 3, self.nsp),
                                           self.dtype)
        self.displacements[...] = 0
        self.temp_r = np.zeros((self.nw, self.nsp), dtype=self.dtype)
        self.temp_dr = np.zeros((self.nw, 3, self.nsp), dtype=self.dtype)

    def _pairs(self, R: np.ndarray):
        dist, disp = active().ab_pairs(self.source.R, R, self.lattice)
        nw = R.shape[0]
        npair = nw * self.nt * self.ns
        METRICS.record(flops=9.0 * npair,
                       rbytes=24.0 * nw * (self.nt + self.ns),
                       wbytes=4.0 * self.dtype.itemsize * npair)
        return dist, disp

    def settle(self, batch) -> None:
        """Nothing to do: every accepted move writes its walker's whole
        row k and ``R`` moves only through accepted moves, so the table
        is already what :meth:`evaluate` gives."""

    def move(self, batch, rnew: np.ndarray, k: int) -> None:
        rk = np.asarray(rnew, dtype=np.float64)
        nw, ns = self.nw, self.ns
        r, dr = active().ab_row(self._src_soa[:, :ns], rk, self.lattice)
        self.temp_dr[:, :, :ns] = np.asarray(dr)
        self.temp_r[:, :ns] = np.asarray(r)
        itemsize = self.dtype.itemsize
        METRICS.record(flops=9.0 * nw * ns,
                       rbytes=24.0 * nw * ns, wbytes=4.0 * itemsize * nw * ns)

    def update(self, k: int, accepted: np.ndarray) -> None:
        commit_rows(self.distances[:, k], self.temp_r, accepted)
        commit_rows(self.displacements[:, k], self.temp_dr, accepted)
        itemsize = self.dtype.itemsize
        nacc = int(np.count_nonzero(accepted))
        METRICS.record(rbytes=4.0 * itemsize * nacc * self.ns,
                       wbytes=4.0 * itemsize * nacc * self.nsp)

    def dist_rows(self, k: int) -> np.ndarray:
        return self.distances[:, k, : self.ns]

    def disp_rows(self, k: int) -> np.ndarray:
        return self.displacements[:, k, :, : self.ns]

    def temp_rows(self) -> np.ndarray:
        return self.temp_r[:, : self.ns]

    def temp_disp_rows(self) -> np.ndarray:
        return self.temp_dr[:, :, : self.ns]

    @property
    def storage_bytes(self) -> int:
        return self.distances.nbytes + self.displacements.nbytes
