"""One-body Jastrow orbital, reference and compute-on-the-fly flavors.

log Psi_J1 = -sum_k U1_k,  U1_k = sum_I u_{s(I)}(|r_I - r_k|)
(Eq. 8 of the paper), with one functor per ion species (Fig. 3's Ni and
O curves).  Consumes the electron-ion (AB) distance table whose rows are
per-electron distances to all ions.

Both flavors keep the per-electron value, gradient and Laplacian
(5N scalars): J1 has no cross-electron terms, so an accepted move
changes one electron's entries and nothing else.

Gradient convention: grad_k = sum_I u'(d_kI) * disp(k->I) / d_kI, where
disp(k->I) = R_I - r_k.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict

import numpy as np

from repro.jastrow import rows, vp
from repro.jastrow.functor import BsplineFunctor
from repro.metrics.registry import METRICS


class _J1Base:
    name = "J1"

    def __init__(self, n: int, ion_species_ids: np.ndarray,
                 functors: Dict[int, BsplineFunctor], table_index: int = 1):
        """``functors`` maps ion species id -> functor; ``table_index`` is
        the AB table's position in the electron set's table list."""
        self.n = n
        self.ion_species_ids = np.asarray(ion_species_ids, dtype=np.int64)
        self.nions = self.ion_species_ids.size
        self.functors = dict(functors)
        self.table_index = table_index
        # Pre-resolved per-ion functor list for the scalar path, and
        # (species id, ion indices) in ascending species order for the
        # vector path — the pinned visit order of every accumulation.
        self._ion_functors = [self.functors[g] for g in self.ion_species_ids]
        self.species_masks = tuple(
            (g, np.where(self.ion_species_ids == g)[0])
            for g in sorted(self.functors))


class OneBodyJastrowOtf(_J1Base):
    """Optimized J1: vectorized per-species row kernels over the AB table,
    carrying the paper's 5N per-electron scalars — ``U`` (N), ``dU``
    (N, 3), ``d2U`` (N) — as the reference flavor does.

    A move evaluates only the proposed row (``rows_vgl``: its value,
    gradient and Laplacian are what an accept commits); the drift reads
    ``dU[k]``, every ratio ``U[k]``.  The arrays stay bitwise a fresh
    row pass over the SoA AB table, whose committed rows are bitwise its
    pair pass for every storage dtype (both are the one fp64
    ``ab_row``/``ab_pairs`` body over the fp64 positions, downcast once
    on assignment), so measure reads them instead of re-evaluating.
    """

    def __init__(self, n, ion_species_ids, functors, table_index: int = 1):
        super().__init__(n, ion_species_ids, functors, table_index)
        self.U = np.zeros(n)
        self.dU = np.zeros((n, 3))
        self.d2U = np.zeros(n)
        #: ``(u, grad, lap)`` of the proposed row in flight
        self._new = None

    # -- row kernels: repro.jastrow.rows at W = 1 ---------------------------------
    def _row_v(self, row_r: np.ndarray) -> float:
        METRICS.record(flops=10.0 * self.nions, rbytes=8.0 * self.nions,
                       wbytes=8.0)
        return float(rows.rows_v(rows.j1_groups(self), row_r[None])[0])

    def _row_vgl(self, row_r: np.ndarray, row_dr: np.ndarray):
        METRICS.record(flops=20.0 * self.nions, rbytes=32.0 * self.nions,
                       wbytes=40.0)
        u_sum, grad, lap = rows.rows_vgl(rows.j1_groups(self), row_r[None],
                                         row_dr[None])
        return float(u_sum[0]), grad[0], float(lap[0])

    def fresh_rows(self, table):
        """``(U, dU, d2U)`` from one row pass over ``table`` — what the
        carried arrays must equal."""
        U = np.empty(self.n)
        dU = np.empty((self.n, 3))
        d2U = np.empty(self.n)
        for k in range(self.n):
            U[k], dU[k], d2U[k] = self._row_vgl(table.dist_row(k),
                                                table.disp_row(k))
        return U, dU, d2U

    def evaluate_log(self, P) -> float:
        with METRICS.scope("J1"):
            self.U[...], self.dU[...], self.d2U[...] = self.fresh_rows(
                P.distance_tables[self.table_index])
            logpsi = 0.0
            for k in range(self.n):
                logpsi -= self.U[k]
            P.G[: self.n] += self.dU
            P.L[: self.n] += self.d2U
            return logpsi

    def grad(self, P, k: int) -> np.ndarray:
        return self.dU[k].copy()

    def _ratio_new(self, P, k: int) -> float:
        """Evaluate the proposed row, keep it for :meth:`accept_move`,
        return the ratio against ``U[k]``."""
        table = P.distance_tables[self.table_index]
        u_new, g_new, l_new = self._row_vgl(table.temp_r[: self.nions],
                                            table.temp_dr[:, : self.nions])
        self._new = (u_new, g_new, l_new)
        return math.exp(-(u_new - self.U[k]))

    def ratio(self, P, k: int) -> float:
        with METRICS.scope("J1"):
            return self._ratio_new(P, k)

    def ratio_grad(self, P, k: int):
        with METRICS.scope("J1"):
            return self._ratio_new(P, k), self._new[1]

    # -- ratio-only "virtual move" API (NLPP quadrature) -------------------------
    def ratio_at(self, P, k: int, r_new) -> float:
        """J1 ratio for electron ``k`` virtually at ``r_new``.

        Recomputes the electron-ion row for ``r_new`` exactly as
        ``table.move`` would (double-precision min-image, then the table's
        policy downcast) without touching ``temp_r`` or any stored state.
        """
        with METRICS.scope("J1"):
            table = P.distance_tables[self.table_index]
            # Min-image math in accumulation precision, then the table's
            # policy downcast — exactly what table.move() would produce.
            disp64 = (np.asarray(table.source.R, dtype=np.float64)
                      - np.asarray(r_new, dtype=np.float64)[None, :])
            if table.lattice.periodic:
                disp64 = table.lattice.min_image_disp(disp64)
            dists = np.sqrt(np.sum(np.square(disp64), axis=-1)).astype(
                getattr(table, "dtype", np.float64))
            u_new = self._row_v(dists)
            u_old = self._row_v(table.dist_row_array(k)[: self.nions])
            return math.exp(-(u_new - u_old))

    def ratios_vp(self, P, owners, positions) -> np.ndarray:
        """Vectorized :meth:`ratio_at` over a virtual-particle slab
        through :func:`repro.jastrow.vp.ratios_vp` (one walker: one
        tile), ``u_old`` read from ``U``."""
        with METRICS.scope("J1"):
            table = P.distance_tables[self.table_index]
            return vp.ratios_vp(
                table.lattice, getattr(table, "dtype", np.float64),
                np.zeros(len(owners), dtype=np.intp), owners, positions,
                source=lambda w: table.source.R.T,
                old_sums=lambda ws, ks: self.U[ks],
                row_sums=partial(vp.j1_row_sums, self), mask_self=False)

    def accept_move(self, P, k: int) -> None:
        self.U[k], self.dU[k], self.d2U[k] = self._new
        self._new = None

    def reject_move(self, P, k: int) -> None:
        self._new = None

    def evaluate_gl(self, P) -> None:
        """Measurement-time grad/lap from the carried arrays."""
        P.G[: self.n] += self.dU
        P.L[: self.n] += self.d2U

    def _as_scalars(self, buf):
        """The arrays as ``buf``'s scalars: their bytes travel, so a
        buffer of value precision (fp32 under a mixed policy) carries the
        fp64 arrays exactly."""
        return [a.view(buf.dtype) for a in (self.U, self.dU, self.d2U)]

    def register_data(self, P, buf) -> None:
        for a in self._as_scalars(buf):
            buf.register(a)

    def update_buffer(self, P, buf) -> None:
        for a in self._as_scalars(buf):
            buf.put(a)

    def copy_from_buffer(self, P, buf) -> None:
        for a in self._as_scalars(buf):
            buf.get(a)

    @property
    def storage_bytes(self) -> int:
        return self.U.nbytes + self.dU.nbytes + self.d2U.nbytes


class OneBodyJastrowRef(_J1Base):
    """Reference J1: stored per-electron value/grad/Laplacian arrays filled
    and updated with scalar per-ion loops."""

    def __init__(self, n, ion_species_ids, functors, table_index: int = 1):
        super().__init__(n, ion_species_ids, functors, table_index)
        self.U = np.zeros(n)
        self.dU = np.zeros((n, 3))
        self.d2U = np.zeros(n)
        self._cache: dict = {}

    def _scalar_row(self, row_r, row_dr):
        """Scalar per-ion accumulation of (u, grad, lap)."""
        u_sum = 0.0
        gx = gy = gz = 0.0
        lap = 0.0
        for I in range(self.nions):
            f = self._ion_functors[I]
            d = row_r[I]
            u, du, d2u = f.evaluate_vgl_scalar(d)
            u_sum += u
            if d < f.rcut:
                w = du / d
                dv = row_dr[I] if isinstance(row_dr, list) else row_dr[:, I]
                gx += w * dv[0]
                gy += w * dv[1]
                gz += w * dv[2]
                lap -= d2u + 2.0 * w
        METRICS.record(flops=30.0 * self.nions, rbytes=32.0 * self.nions,
                       wbytes=40.0)
        return u_sum, np.array([gx, gy, gz]), lap

    def evaluate_log(self, P) -> float:
        with METRICS.scope("J1"):
            table = P.distance_tables[self.table_index]
            logpsi = 0.0
            for k in range(self.n):
                u, g, l = self._scalar_row(table.dist_row(k),
                                           table.disp_row(k))
                self.U[k] = u
                self.dU[k] = g
                self.d2U[k] = l
                logpsi -= u
                P.G[k] += g
                P.L[k] += l
            return logpsi

    def grad(self, P, k: int) -> np.ndarray:
        return self.dU[k].copy()

    def ratio(self, P, k: int) -> float:
        with METRICS.scope("J1"):
            table = P.distance_tables[self.table_index]
            u_new, g_new, l_new = self._scalar_row(table.temp_r,
                                                   table.temp_dr)
            self._cache[k] = (u_new, g_new, l_new)
            return math.exp(-(u_new - self.U[k]))

    def ratio_grad(self, P, k: int):
        r = self.ratio(P, k)
        return r, self._cache[k][1]

    def ratio_at(self, P, k: int, r_new) -> float:
        """Ratio-only virtual move: scalar per-ion recompute at ``r_new``
        against the stored ``U[k]``; no cache entry, no state change."""
        with METRICS.scope("J1"):
            table = P.distance_tables[self.table_index]
            disp64 = (np.asarray(table.source.R, dtype=np.float64)
                      - np.asarray(r_new, dtype=np.float64)[None, :])
            if table.lattice.periodic:
                disp64 = table.lattice.min_image_disp(disp64)
            dists = np.sqrt(np.sum(np.square(disp64), axis=-1))
            u_new = 0.0
            for I in range(self.nions):
                u_new += self._ion_functors[I].evaluate_v_scalar(
                    float(dists[I]))
            # the value-only share of a _scalar_row: one u written
            METRICS.record(flops=12.0 * self.nions,
                           rbytes=32.0 * self.nions, wbytes=8.0)
            return math.exp(-(u_new - self.U[k]))

    def accept_move(self, P, k: int) -> None:
        u_new, g_new, l_new = self._cache.pop(k)
        self.U[k] = u_new
        self.dU[k] = g_new
        self.d2U[k] = l_new

    def reject_move(self, P, k: int) -> None:
        self._cache.pop(k, None)

    def evaluate_gl(self, P) -> None:
        """Measurement-time grad/lap from the stored per-electron arrays."""
        P.G[: self.n] += self.dU
        P.L[: self.n] += self.d2U

    def register_data(self, P, buf) -> None:
        buf.register(self.U)
        buf.register(self.dU)
        buf.register(self.d2U)

    def update_buffer(self, P, buf) -> None:
        buf.put(self.U)
        buf.put(self.dU)
        buf.put(self.d2U)

    def copy_from_buffer(self, P, buf) -> None:
        buf.get(self.U)
        buf.get(self.dU)
        buf.get(self.d2U)

    @property
    def storage_bytes(self) -> int:
        return self.U.nbytes + self.dU.nbytes + self.d2U.nbytes
