"""Walker-batched Jastrow components (J1 + J2).

The per-walker components in :mod:`repro.jastrow` evaluate one
(electron, all-partners) row at a time; here the same row sums
(:mod:`repro.jastrow.rows` — one body for both stacks, which also
states the bitwise contract the differential suite relies on) take the
(W, n) row *block* of a :class:`~repro.batched.distances` table and
produce per-walker scalars as (W,) vectors.

Ratios apply ``math.exp`` per walker (a short scalar loop): ``np.exp``'s
SIMD path differs from libm by 1 ulp on a few percent of arguments,
which is enough to flip a Metropolis comparison.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.backend import active
from repro.batched.walkerbatch import commit_rows
from repro.jastrow import rows, vp
from repro.jastrow.functor import BsplineFunctor
from repro.metrics.registry import METRICS


def exp_rows(x: np.ndarray) -> np.ndarray:
    """Per-walker exp via the kernel seam (a libm loop that
    bitwise-matches the scalar path's math.exp)."""
    return np.asarray(active().exp_rows(x))


class BatchedTwoBodyJastrow:
    """J2 over a batched AA table: per-walker scalars become (W,) vectors."""

    name = "J2"

    def __init__(self, nwalkers: int, n: int,
                 group_slices: List[Tuple[int, slice]],
                 functors: Dict[Tuple[int, int], BsplineFunctor],
                 table_index: int = 0):
        self.nw = int(nwalkers)
        self.n = int(n)
        self.group_slices = group_slices
        self.functors = {}
        for gi, gj in sorted(functors):
            self.functors[(min(gi, gj), max(gi, gj))] = functors[(gi, gj)]
        self.group_of = np.empty(n, dtype=np.int64)
        for g, s in group_slices:
            self.group_of[s] = g
        self.table_index = table_index
        #: (W, n) value sum ``sum_j u(r_ij)`` of every electron's row, as
        #: the last log pass left it — the NLPP ``u_old``
        self.U = np.zeros((self.nw, self.n))

    def functor_for(self, gi: int, gj: int) -> BsplineFunctor:
        return self.functors[(min(gi, gj), max(gi, gj))]

    # -- row-block kernels: repro.jastrow.rows ------------------------------------
    def _rows_v(self, rows_r: np.ndarray, k: int) -> np.ndarray:
        """sum_j u(r_kj) for each walker's row; rows_r is (W, n)."""
        METRICS.record(flops=10.0 * self.nw * self.n,
                       rbytes=8.0 * self.nw * self.n, wbytes=8.0 * self.nw)
        return rows.rows_v(rows.j2_groups(self, self.group_of[k]), rows_r)

    def _rows_vgl(self, rows_r: np.ndarray, rows_dr: np.ndarray, k: int):
        """(sum u, grad_k, lap_k) per walker; rows_dr is (W, 3, n)."""
        METRICS.record(flops=20.0 * self.nw * self.n,
                       rbytes=32.0 * self.nw * self.n,
                       wbytes=40.0 * self.nw)
        return rows.rows_vgl(rows.j2_groups(self, self.group_of[k]),
                             rows_r, rows_dr)

    def _rows_vg(self, rows_r: np.ndarray, rows_dr: np.ndarray, k: int):
        """(sum u, grad_k) per walker: :meth:`_rows_vgl` without the
        Laplacian channel the sweep never reads, bitwise its first two
        results."""
        METRICS.record(flops=16.0 * self.nw * self.n,
                       rbytes=32.0 * self.nw * self.n, wbytes=32.0 * self.nw)
        return rows.rows_vg(rows.j2_groups(self, self.group_of[k]),
                            rows_r, rows_dr)

    # -- batched component API ---------------------------------------------------
    def evaluate_log(self, batch, tables, G: np.ndarray, L: np.ndarray,
                     on_row=None) -> np.ndarray:
        """Full log Psi_J2 per walker from one stream over the AA
        table's rows (``table.rows``: on the compute-on-the-fly table
        each row is computed once, here); accumulates into G (W,n,3),
        L (W,n), keeps each row's value sum in ``U`` and hands every
        distance row to ``on_row(i, rows_r)`` as it passes — how the
        e-e Coulomb sum shares the stream."""
        with METRICS.scope("J2"):
            table = tables[self.table_index]
            logpsi = np.zeros(self.nw)
            for i, (rows_r, rows_dr) in enumerate(table.rows(batch)):
                u_sum, grad, lap = self._rows_vgl(rows_r, rows_dr, i)
                self.U[:, i] = u_sum
                logpsi -= 0.5 * u_sum
                G[:, i] += grad
                L[:, i] += lap
                if on_row is not None:
                    on_row(i, rows_r)
            return logpsi

    def fresh_sums(self, batch, tables) -> np.ndarray:
        """The (W, n) value sums ``U`` must equal: ``rows_v`` over the
        rows of one from-scratch pair pass over ``batch.R``."""
        table = tables[self.table_index]
        dist, _ = active().aa_pairs(batch.R, table.lattice)
        return np.stack([self._rows_v(dist[:, i], i) for i in range(self.n)],
                        axis=1)

    def grad(self, tables, k: int) -> np.ndarray:
        """(W, 3) gradient at the current positions (for the drift)."""
        with METRICS.scope("J2"):
            table = tables[self.table_index]
            _, g, _ = self._rows_vgl(table.dist_rows(k), table.disp_rows(k),
                                     k)
            return g

    def ratio(self, tables, k: int) -> np.ndarray:
        """(W,) Psi(R')/Psi(R) for the proposed crowd-wide move of k."""
        with METRICS.scope("J2"):
            table = tables[self.table_index]
            u_new = self._rows_v(table.temp_rows(), k)
            u_old = self._rows_v(table.dist_rows(k), k)
            return exp_rows(-(u_new - u_old))

    def ratio_grad(self, tables, k: int):
        """((W,) ratio, (W, 3) gradient at the proposed positions)."""
        with METRICS.scope("J2"):
            table = tables[self.table_index]
            u_new, grad_new, _ = self._rows_vgl(table.temp_rows(),
                                                table.temp_disp_rows(), k)
            u_old = self._rows_v(table.dist_rows(k), k)
            return exp_rows(-(u_new - u_old)), grad_new

    # -- fused-sweep API (repro.batched.sweep) -----------------------------------
    # Same numerics as grad/ratio/ratio_grad with the per-call
    # METRICS.scope hoisted out and the Laplacian channel dropped
    # (``_rows_vg``), plus the drift path's one redundancy fix:
    # ``_rows_vg``'s value channel is bitwise the ``_rows_v`` row
    # sum (identical Horner, coefficient gather and per-slice pairwise
    # reduction), so ``sweep_grad`` hands its old-row value sum to
    # ``sweep_ratio_grad`` as ``u_old`` instead of evaluating the old
    # row's functors a second time per electron.  Valid on every table:
    # the sweep calls ``table.set_active(k)`` before the gradient, so
    # the row read here is the one the move's ratio needs, and ``move``
    # writes only the temporaries.

    def sweep_grad(self, tables, k: int):
        """Timer-free :meth:`grad`; returns ``(u_old, grad)``."""
        table = tables[self.table_index]
        return self._rows_vg(table.dist_rows(k), table.disp_rows(k), k)

    def sweep_ratio(self, tables, k: int) -> np.ndarray:
        """Timer-free :meth:`ratio` for the fused sweep pipeline."""
        table = tables[self.table_index]
        u_new = self._rows_v(table.temp_rows(), k)
        u_old = self._rows_v(table.dist_rows(k), k)
        return exp_rows(-(u_new - u_old))

    def sweep_ratio_grad(self, tables, k: int, u_old):
        """Timer-free :meth:`ratio_grad` reusing :meth:`sweep_grad`'s
        ``u_old`` (bitwise the ``_rows_v`` sum the eager path computes)."""
        table = tables[self.table_index]
        u_new, grad_new = self._rows_vg(table.temp_rows(),
                                        table.temp_disp_rows(), k)
        return exp_rows(-(u_new - u_old)), grad_new

    def accept_move(self, k: int, accepted: np.ndarray) -> None:
        """Nothing to commit: every row is read from the table, and
        ``U`` belongs to the log pass."""

    def gather(self, tables, src: np.ndarray) -> None:
        """Nothing to move with the walkers after the comb: ``U`` is
        read only after a log pass has rebuilt it."""

    def ratios_vp(self, batch, tables, owners_w, owners_k,
                  positions) -> np.ndarray:
        """Ratio-only J2 over a crowd-wide virtual-particle slab.

        ``owners_w[m]`` / ``owners_k[m]`` name the walker and electron
        owning virtual position ``positions[m]``.  Fresh rows against
        each owner walker's canonical (accumulation-precision) positions
        through :func:`repro.jastrow.vp.ratios_vp`, ``u_old`` read from
        the carried row sums ``U`` of the log pass that precedes every
        Hamiltonian evaluation; nothing is written.
        """
        with METRICS.scope("J2"):
            table = tables[self.table_index]
            return vp.ratios_vp(
                table.lattice, table.dtype, owners_w, owners_k,
                positions, source=lambda w: batch.R[w].T,
                old_sums=lambda ws, ks: self.U[ws, ks],
                row_sums=partial(vp.j2_row_sums, self), mask_self=True)


class BatchedOneBodyJastrow:
    """J1 over a batched AB table, one functor per ion species, carrying
    the 5N per-electron scalars of each walker: ``U`` (W, N), ``dU``
    (W, N, 3), ``d2U`` (W, N) — the batched twin of
    :class:`repro.jastrow.j1.OneBodyJastrowOtf`.

    A move evaluates the proposed row only (``rows_vgl``); the accept
    hook commits it through ``commit_rows`` after the table updates.
    The arrays are bitwise a fresh row pass over the carried AB table,
    so measure and the NLPP ``u_old`` read them.
    """

    name = "J1"

    def __init__(self, nwalkers: int, n: int, ion_species_ids: np.ndarray,
                 functors: Dict[int, BsplineFunctor], table_index: int = 1):
        self.nw = int(nwalkers)
        self.n = int(n)
        self.ion_species_ids = np.asarray(ion_species_ids, dtype=np.int64)
        self.nions = self.ion_species_ids.size
        self.functors = dict(functors)
        self.table_index = table_index
        #: (species id, ion indices) in ascending species order — the
        #: pinned visit order of every per-species accumulation
        self.species_masks = tuple(
            (g, np.where(self.ion_species_ids == g)[0])
            for g in sorted(self.functors))
        self.U = np.zeros((self.nw, self.n))
        self.dU = np.zeros((self.nw, self.n, 3))
        self.d2U = np.zeros((self.nw, self.n))
        #: ``(u, grad, lap)`` per walker of the proposed row in flight
        self._new = None

    # -- row-block kernels: repro.jastrow.rows ------------------------------------
    def _rows_vgl(self, rows_r: np.ndarray, rows_dr: np.ndarray):
        METRICS.record(flops=20.0 * self.nw * self.nions,
                       rbytes=32.0 * self.nw * self.nions,
                       wbytes=40.0 * self.nw)
        return rows.rows_vgl(rows.j1_groups(self), rows_r, rows_dr)

    def fresh_rows(self, table):
        """``(U, dU, d2U)`` from one row pass over ``table`` — what the
        carried arrays must equal.  Always over the whole crowd: the
        row sums' bits depend on the row block's memory layout, which a
        walker subset would change."""
        u, g, lap = zip(*(self._rows_vgl(table.dist_rows(k),
                                         table.disp_rows(k))
                          for k in range(self.n)))
        return np.stack(u, axis=1), np.stack(g, axis=1), np.stack(lap, axis=1)

    def _refresh(self, table, slots=slice(None)) -> None:
        """Refresh the walkers ``slots`` from the table's rows."""
        for a, fresh in zip((self.U, self.dU, self.d2U),
                            self.fresh_rows(table)):
            a[slots] = fresh[slots]

    def _log_gl(self, G: np.ndarray, L: np.ndarray) -> np.ndarray:
        """log Psi_J1 per walker from ``U`` (electron order, as the row
        pass accumulates it), plus ``dU``/``d2U`` into G and L."""
        logpsi = np.zeros(self.nw)
        for k in range(self.n):
            logpsi -= self.U[:, k]
        G += self.dU
        L += self.d2U
        return logpsi

    def evaluate_log(self, batch, tables, G: np.ndarray,
                     L: np.ndarray) -> np.ndarray:
        """From scratch (set-up, resume, respawn): fill the arrays from
        the table, then accumulate them."""
        with METRICS.scope("J1"):
            self._refresh(tables[self.table_index])
            return self._log_gl(G, L)

    def measure_log(self, batch, tables, G: np.ndarray, L: np.ndarray):
        """Measurement-time log Psi, G and L: read from the carried
        arrays."""
        with METRICS.scope("J1"):
            return self._log_gl(G, L)

    def gather(self, tables, src: np.ndarray) -> None:
        """Follow the comb with the tables (:meth:`_PairTable.gather`):
        slot ``w`` copies slot ``src[w]``'s arrays, a ``-1`` slot (a
        walker from another crowd) is refreshed from its pair-passed
        rows (one row pass over the crowd)."""
        moved = np.flatnonzero((src >= 0) & (src != np.arange(self.nw)))
        if moved.size:
            for a in (self.U, self.dU, self.d2U):
                a[moved] = a[src[moved]]
        foreign = np.flatnonzero(src < 0)
        if foreign.size:
            self._refresh(tables[self.table_index], foreign)

    def grad(self, tables, k: int) -> np.ndarray:
        with METRICS.scope("J1"):
            return self.dU[:, k].copy()

    def ratio(self, tables, k: int) -> np.ndarray:
        with METRICS.scope("J1"):
            return self.sweep_ratio(tables, k)

    def ratio_grad(self, tables, k: int):
        with METRICS.scope("J1"):
            return self.sweep_ratio_grad(tables, k, self.U[:, k])

    # -- fused-sweep API: timer-free twins, see the J2 note --------------------
    def sweep_grad(self, tables, k: int):
        """Timer-free :meth:`grad`; returns ``(u_old, grad)`` — both
        read from the carried arrays, no row evaluation."""
        return self.U[:, k], self.dU[:, k]

    def _ratio_new(self, tables, k: int, u_old) -> np.ndarray:
        """Evaluate the proposed rows, keep them for :meth:`accept_move`,
        return the ratios against ``u_old``."""
        table = tables[self.table_index]
        self._new = self._rows_vgl(table.temp_rows(), table.temp_disp_rows())
        return exp_rows(-(self._new[0] - u_old))

    def sweep_ratio(self, tables, k: int) -> np.ndarray:
        """Timer-free :meth:`ratio` for the fused sweep pipeline."""
        return self._ratio_new(tables, k, self.U[:, k])

    def sweep_ratio_grad(self, tables, k: int, u_old):
        """Timer-free :meth:`ratio_grad`; ``u_old`` is
        :meth:`sweep_grad`'s ``U[:, k]``."""
        return self._ratio_new(tables, k, u_old), self._new[1]

    def accept_move(self, k: int, accepted: np.ndarray) -> None:
        """Commit the proposed rows of the accepted walkers — after the
        table updates, the same ``commit_rows`` they use."""
        u, g, lap = self._new
        commit_rows(self.U[:, k], u, accepted)
        commit_rows(self.dU[:, k], g, accepted)
        commit_rows(self.d2U[:, k], lap, accepted)
        self._new = None

    def ratios_vp(self, batch, tables, owners_w, owners_k,
                  positions) -> np.ndarray:
        """Ratio-only J1 over a crowd-wide virtual-particle slab: fresh
        rows against the shared fixed ions through
        :func:`repro.jastrow.vp.ratios_vp`, ``u_old`` read from ``U``."""
        with METRICS.scope("J1"):
            table = tables[self.table_index]
            return vp.ratios_vp(
                table.lattice, table.dtype, owners_w, owners_k,
                positions, source=lambda w: table._src_soa,
                old_sums=lambda ws, ks: self.U[ws, ks],
                row_sums=partial(vp.j1_row_sums, self), mask_self=False)
