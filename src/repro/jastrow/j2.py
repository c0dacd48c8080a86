"""Two-body Jastrow orbital, reference and compute-on-the-fly flavors.

log Psi_J2 = -sum_{i<j} u_{s_i s_j}(r_ij), with spin-pair resolved
functors (uu/dd like-spin, ud unlike-spin).

Gradient/Laplacian conventions (contributions to log Psi):

* grad_i = sum_j u'(d_ij) * disp(i->j) / d_ij          (3-vector)
* lap_i  = -sum_j ( u''(d_ij) + 2 u'(d_ij) / d_ij )

where disp(i->j) = r_j - r_i is the distance-table convention.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.distances.base import BIG_DISTANCE
from repro.jastrow import rows, vp
from repro.jastrow.functor import BsplineFunctor
from repro.metrics.registry import METRICS


class _J2Base:
    """Shared species-pair bookkeeping for both flavors."""

    name = "J2"

    def __init__(self, n: int, group_slices: List[Tuple[int, slice]],
                 functors: Dict[Tuple[int, int], BsplineFunctor]):
        """``group_slices`` is [(group_id, slice)] from
        ParticleSet.group_ranges(); ``functors`` maps unordered group-id
        pairs (gi <= gj) to functors."""
        self.n = n
        self.group_slices = group_slices
        self.functors = {}
        for (gi, gj), f in functors.items():
            self.functors[(min(gi, gj), max(gi, gj))] = f
        self.group_of = np.empty(n, dtype=np.int64)
        for g, s in group_slices:
            self.group_of[s] = g

    def functor_for(self, gi: int, gj: int) -> BsplineFunctor:
        return self.functors[(min(gi, gj), max(gi, gj))]


class TwoBodyJastrowOtf(_J2Base):
    """Optimized J2: vectorized rows, no persistent pair matrices (5N scalars
    of transient work arrays instead of 5N^2 of stored state).

    The old row is evaluated once per drift move: :meth:`grad` keeps its
    value sum as ``(k, u_old)`` for :meth:`ratio_grad` — bitwise the
    ``_row_v`` sum, since the value channel of ``rows_vg`` is the
    value-only result op for op.  The measure (:meth:`evaluate_log`,
    :meth:`evaluate_gl`) recomputes every electron's gradient and
    Laplacian in one ``rows_vgl`` block per spin group, read from the
    table's stored rows of that group — bitwise the per-electron rows,
    since the groups are slices (see :mod:`repro.jastrow.rows`)."""

    def __init__(self, n, group_slices, functors, table_index: int = 0):
        super().__init__(n, group_slices, functors)
        self.table_index = table_index
        #: ``(k, old-row value sum)`` from the last :meth:`grad`
        self._u_old = None

    # -- row kernels: repro.jastrow.rows at W = 1 ---------------------------------
    def _row_v(self, row_r: np.ndarray, k: int) -> float:
        """sum_j u(r_kj) over a distance row (vectorized per group)."""
        METRICS.record(flops=10.0 * self.n, rbytes=8.0 * self.n,
                       wbytes=8.0)
        return float(rows.rows_v(
            rows.j2_groups(self, self.group_of[k]), row_r[None])[0])

    def _row_vg(self, row_r: np.ndarray, row_dr: np.ndarray, k: int):
        """(sum u, grad_k) over a row; row_dr is (3, N)."""
        METRICS.record(flops=16.0 * self.n, rbytes=32.0 * self.n,
                       wbytes=8.0 * 4)
        u_sum, grad = rows.rows_vg(
            rows.j2_groups(self, self.group_of[k]), row_r[None], row_dr[None])
        return float(u_sum[0]), grad[0]

    def _blocks_vgl(self, P):
        """Yield ``(slice, u_sums, grads, laps)`` per spin group: one
        ``rows_vgl`` over the group's stored table rows (shapes (n_g,),
        (n_g, 3), (n_g,)), each the group's electrons' own rows bit for
        bit.  Records what ``n_g`` single-row evaluations would."""
        table = P.distance_tables[self.table_index]
        n = self.n
        for g, s in self.group_slices:
            n_g = s.stop - s.start
            METRICS.record(flops=20.0 * n * n_g, rbytes=32.0 * n * n_g,
                           wbytes=40.0 * n_g)
            yield (s,) + rows.rows_vgl(rows.j2_groups(self, g),
                                       table.distances[s, :n],
                                       table.displacements[s, :, :n])

    # -- WaveFunctionComponent API ---------------------------------------------------
    def evaluate_log(self, P) -> float:
        """Full log Psi_J2; accumulates into P.G and P.L."""
        self._u_old = None
        with METRICS.scope("J2"):
            logpsi = 0.0
            for s, u_sums, grad, lap in self._blocks_vgl(P):
                for u_sum in u_sums.tolist():  # electron order, as a row loop
                    logpsi -= 0.5 * u_sum
                P.G[s] += grad
                P.L[s] += lap
            return logpsi

    def grad(self, P, k: int) -> np.ndarray:
        """grad_k log Psi_J2 at the current position (for the drift)."""
        with METRICS.scope("J2"):
            table = P.distance_tables[self.table_index]
            u_old, g = self._row_vg(table.dist_row(k), table.disp_row(k), k)
            self._u_old = (k, u_old)
            return g

    def _old_sum(self, table, k: int) -> float:
        """The old-row value sum: handed on by :meth:`grad` for this
        move, else evaluated (a ``ratio_grad`` with no ``grad`` before)."""
        held, self._u_old = self._u_old, None
        if held is not None and held[0] == k:
            return held[1]
        return self._row_v(table.dist_row(k), k)

    def ratio(self, P, k: int) -> float:
        """Psi(R')/Psi(R) for the proposed move of particle k."""
        with METRICS.scope("J2"):
            table = P.distance_tables[self.table_index]
            u_new = self._row_v(table.temp_r[: self.n], k)
            u_old = self._row_v(table.dist_row(k), k)
            return math.exp(-(u_new - u_old))

    def ratio_grad(self, P, k: int):
        """(ratio, grad at the proposed position)."""
        with METRICS.scope("J2"):
            table = P.distance_tables[self.table_index]
            u_new, grad_new = self._row_vg(
                table.temp_r[: self.n],
                table.temp_dr[:, : self.n], k)
            u_old = self._old_sum(table, k)
            return math.exp(-(u_new - u_old)), grad_new

    # -- ratio-only "virtual move" API (NLPP quadrature) -------------------------
    def ratio_at(self, P, k: int, r_new) -> float:
        """J2 ratio for electron ``k`` virtually at ``r_new``: fresh
        electron-electron row in accumulation precision with the table's
        policy downcast, self-distance masked by the BIG sentinel; no
        temp rows are written."""
        with METRICS.scope("J2"):
            table = P.distance_tables[self.table_index]
            disp64 = (np.asarray(P.R, dtype=np.float64)
                      - np.asarray(r_new, dtype=np.float64)[None, :])
            if table.lattice.periodic:
                disp64 = table.lattice.min_image_disp(disp64)
            d64 = np.sqrt(np.sum(np.square(disp64), axis=-1))
            d64[k] = BIG_DISTANCE
            dists = d64.astype(getattr(table, "dtype", np.float64))
            u_new = self._row_v(dists, k)
            u_old = self._row_v(table.dist_row_array(k)[: self.n], k)
            return math.exp(-(u_new - u_old))

    def ratios_vp(self, P, owners, positions) -> np.ndarray:
        """Vectorized :meth:`ratio_at` over a virtual-particle slab
        through :func:`repro.jastrow.vp.ratios_vp` (one walker: one
        tile)."""
        with METRICS.scope("J2"):
            table = P.distance_tables[self.table_index]
            return vp.ratios_vp(
                table.lattice, getattr(table, "dtype", np.float64),
                np.zeros(len(owners), dtype=np.intp), owners, positions,
                source=lambda w: P.R.T,
                old_sums=lambda ws, ks: vp.j2_row_sums(
                    self, table.distances[ks, : self.n], ks),
                row_sums=partial(vp.j2_row_sums, self), mask_self=True)

    def accept_move(self, P, k: int) -> None:
        self._u_old = None  # no pair state: rows are recomputed from the table

    def reject_move(self, P, k: int) -> None:
        self._u_old = None

    def evaluate_gl(self, P) -> None:
        """Measurement-time grad/lap: recomputed from the distance rows —
        that is the compute-on-the-fly policy (nothing was stored) — in
        one row block per spin group."""
        with METRICS.scope("J2"):
            for s, _, grad, lap in self._blocks_vgl(P):
                P.G[s] += grad
                P.L[s] += lap

    # -- walker buffer (Current: only the scalar log value travels) --------------------
    def register_data(self, P, buf) -> None:
        buf.register_scalar(0.0)

    def update_buffer(self, P, buf) -> None:
        buf.put_scalar(0.0)

    def copy_from_buffer(self, P, buf) -> None:
        buf.get_scalar()

    @property
    def storage_bytes(self) -> int:
        return 5 * self.n * 8  # transient work arrays only


class TwoBodyJastrowRef(_J2Base):
    """Reference J2: full N x N value/gradient/Laplacian matrices, scalar
    per-pair arithmetic, row+column updates on acceptance.

    Stored state per walker (the paper's 5 N^2 scalars):
      * ``Umat[i, j]``  = u(d_ij)
      * ``dUmat[i, j]`` = u'(d_ij) * disp(i->j)/d_ij   (grad-log contribution)
      * ``d2Umat[i, j]`` = u''(d_ij) + 2 u'(d_ij)/d_ij
    """

    def __init__(self, n, group_slices, functors, table_index: int = 0):
        super().__init__(n, group_slices, functors)
        self.table_index = table_index
        self.Umat = np.zeros((n, n))
        self.dUmat = np.zeros((n, n, 3))
        self.d2Umat = np.zeros((n, n))
        self._cache: dict = {}

    # -- full evaluation ------------------------------------------------------------
    def evaluate_log(self, P) -> float:
        with METRICS.scope("J2"):
            table = P.distance_tables[self.table_index]
            n = self.n
            logpsi = 0.0
            for i in range(n):
                row_r = table.dist_row(i)
                row_dr = table.disp_row(i)
                gi = self.group_of[i]
                for j in range(n):
                    if j == i:
                        self.Umat[i, j] = 0.0
                        self.dUmat[i, j] = 0.0
                        self.d2Umat[i, j] = 0.0
                        continue
                    d = row_r[j]
                    f = self.functor_for(gi, self.group_of[j])
                    u, du, d2u = f.evaluate_vgl_scalar(d)
                    self.Umat[i, j] = u
                    if d < f.rcut:
                        w = du / d
                        dv = row_dr[j] if isinstance(row_dr, list) \
                            else row_dr[:, j]
                        self.dUmat[i, j, 0] = w * dv[0]
                        self.dUmat[i, j, 1] = w * dv[1]
                        self.dUmat[i, j, 2] = w * dv[2]
                        self.d2Umat[i, j] = d2u + 2.0 * w
                    else:
                        self.dUmat[i, j] = 0.0
                        self.d2Umat[i, j] = 0.0
                logpsi -= 0.5 * float(np.sum(self.Umat[i]))
                P.G[i] += np.sum(self.dUmat[i], axis=0)
                P.L[i] += -float(np.sum(self.d2Umat[i]))
            METRICS.record(flops=30.0 * n * n, rbytes=16.0 * n * n,
                           wbytes=40.0 * n * n)
            return logpsi

    def grad(self, P, k: int) -> np.ndarray:
        """From the stored matrices — the retrieve side of store-over-compute."""
        with METRICS.scope("J2"):
            METRICS.record(rbytes=24.0 * self.n, wbytes=24.0)
            return np.sum(self.dUmat[k], axis=0)

    # -- PbyP -------------------------------------------------------------------------
    def _scalar_row(self, P, k: int, with_grad: bool):
        """Scalar loop over the temp row; returns (u_new_list, du, d2u, grad)."""
        table = P.distance_tables[self.table_index]
        temp_r = table.temp_r
        temp_dr = table.temp_dr
        gk = self.group_of[k]
        n = self.n
        u_new = [0.0] * n
        du_new = [(0.0, 0.0, 0.0)] * n
        d2u_new = [0.0] * n
        grad = [0.0, 0.0, 0.0]
        for j in range(n):
            if j == k:
                continue
            d = temp_r[j]
            f = self.functor_for(gk, self.group_of[j])
            if with_grad:
                u, du, d2u = f.evaluate_vgl_scalar(d)
                u_new[j] = u
                if d < f.rcut:
                    w = du / d
                    dv = temp_dr[j] if isinstance(temp_dr, list) else temp_dr[:, j]
                    t = (w * dv[0], w * dv[1], w * dv[2])
                    du_new[j] = t
                    d2u_new[j] = d2u + 2.0 * w
                    grad[0] += t[0]
                    grad[1] += t[1]
                    grad[2] += t[2]
            else:
                u_new[j] = f.evaluate_v_scalar(d)
        METRICS.record(flops=(30.0 if with_grad else 12.0) * n,
                       rbytes=32.0 * n, wbytes=40.0 * n)
        return u_new, du_new, d2u_new, np.array(grad)

    def ratio(self, P, k: int) -> float:
        with METRICS.scope("J2"):
            u_new, du_new, d2u_new, _ = self._scalar_row(P, k, with_grad=False)
            u_old = float(np.sum(self.Umat[k]))
            self._cache[k] = (u_new, None, None)
            return math.exp(-(sum(u_new) - u_old))

    def ratio_grad(self, P, k: int):
        with METRICS.scope("J2"):
            u_new, du_new, d2u_new, grad = self._scalar_row(P, k, with_grad=True)
            u_old = float(np.sum(self.Umat[k]))
            self._cache[k] = (u_new, du_new, d2u_new)
            return math.exp(-(sum(u_new) - u_old)), grad

    def ratio_at(self, P, k: int, r_new) -> float:
        """Ratio-only virtual move against the stored ``Umat[k]`` row:
        scalar per-pair recompute at ``r_new``, no cache entry."""
        with METRICS.scope("J2"):
            disp64 = (np.asarray(P.R, dtype=np.float64)
                      - np.asarray(r_new, dtype=np.float64)[None, :])
            table = P.distance_tables[self.table_index]
            if table.lattice.periodic:
                disp64 = table.lattice.min_image_disp(disp64)
            dists = np.sqrt(np.sum(np.square(disp64), axis=-1))
            gk = self.group_of[k]
            u_new = 0.0
            for j in range(self.n):
                if j == k:
                    continue
                f = self.functor_for(gk, self.group_of[j])
                u_new += f.evaluate_v_scalar(float(dists[j]))
            # what _scalar_row(with_grad=False) records for the same row
            METRICS.record(flops=12.0 * self.n, rbytes=32.0 * self.n,
                           wbytes=40.0 * self.n)
            u_old = float(np.sum(self.Umat[k]))
            return math.exp(-(u_new - u_old))

    def accept_move(self, P, k: int) -> None:
        """Row + column writes into all three matrices (scalar loop)."""
        with METRICS.scope("J2"):
            u_new, du_new, d2u_new = self._cache.pop(k)
            if du_new is None:
                # ratio() was called without gradients; rebuild them now from
                # the temp row so the stored state stays complete.
                u_new, du_new, d2u_new, _ = self._scalar_row(P, k,
                                                             with_grad=True)
            n = self.n
            for j in range(n):
                if j == k:
                    continue
                self.Umat[k, j] = u_new[j]
                self.Umat[j, k] = u_new[j]
                t = du_new[j]
                self.dUmat[k, j, 0] = t[0]
                self.dUmat[k, j, 1] = t[1]
                self.dUmat[k, j, 2] = t[2]
                # disp(j->k) = -disp(k->j): gradient terms flip sign.
                self.dUmat[j, k, 0] = -t[0]
                self.dUmat[j, k, 1] = -t[1]
                self.dUmat[j, k, 2] = -t[2]
                self.d2Umat[k, j] = d2u_new[j]
                self.d2Umat[j, k] = d2u_new[j]
            METRICS.record(rbytes=40.0 * n, wbytes=80.0 * n)

    def reject_move(self, P, k: int) -> None:
        self._cache.pop(k, None)

    def evaluate_gl(self, P) -> None:
        """Measurement-time grad/lap retrieved from the stored matrices —
        the store-over-compute policy's read side."""
        with METRICS.scope("J2"):
            n = self.n
            P.G[:n] += np.sum(self.dUmat, axis=1)
            P.L[:n] += -np.sum(self.d2Umat, axis=1)
            METRICS.record(rbytes=40.0 * n * n, wbytes=32.0 * n)

    # -- walker buffer (Ref: the full 5N^2 matrices travel) ----------------------------
    def register_data(self, P, buf) -> None:
        buf.register(self.Umat)
        buf.register(self.dUmat)
        buf.register(self.d2Umat)

    def update_buffer(self, P, buf) -> None:
        buf.put(self.Umat)
        buf.put(self.dUmat)
        buf.put(self.d2Umat)

    def copy_from_buffer(self, P, buf) -> None:
        buf.get(self.Umat)
        buf.get(self.dUmat)
        buf.get(self.d2Umat)

    @property
    def storage_bytes(self) -> int:
        return self.Umat.nbytes + self.dUmat.nbytes + self.d2Umat.nbytes
