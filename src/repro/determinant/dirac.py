"""DiracDeterminant: one spin block of the Slater determinant."""

from __future__ import annotations

import numpy as np

from repro.backend import active
from repro.metrics.registry import METRICS


class DiracDeterminant:
    """det A with A[i, j] = phi_j(r_{first+i}); PbyP ratios and updates.

    Parameters
    ----------
    spo:
        SPO set providing ``evaluate_v`` / ``evaluate_vgl``.
    first, last:
        Electron index range [first, last) owned by this determinant
        (one spin species).
    dtype:
        Storage type of the inverse and orbital matrices.  float32 is the
        paper's "double-to-single transition in A^-1" that more than
        doubled SPO-vgl and DetUpdate throughput.
    """

    name = "Det"

    def __init__(self, spo, first: int, last: int, dtype=np.float64):
        self.spo = spo
        self.first = first
        self.last = last
        self.nel = last - first
        if self.nel <= 0:
            raise ValueError("determinant needs at least one electron")
        if spo.norb < self.nel:
            raise ValueError(
                f"need {self.nel} orbitals, SPO set has {spo.norb}")
        self.dtype = np.dtype(dtype)
        n = self.nel
        self.psiM = np.zeros((n, n), dtype=self.dtype)       # phi_j(r_i)
        self.psiM_inv = np.zeros((n, n), dtype=self.dtype)   # A^-1
        self.dpsiM = np.zeros((n, n, 3), dtype=self.dtype)   # grad phi
        self.d2psiM = np.zeros((n, n), dtype=self.dtype)     # lap phi
        self.log_abs_det = 0.0
        self.sign_det = 1.0
        self._cache: dict = {}

    def owns(self, k: int) -> bool:
        """Does electron k belong to this determinant's spin block?"""
        return self.first <= k < self.last

    # -- full recompute (double precision, then stored in self.dtype) ---------------
    def recompute(self, P) -> float:
        """Build psiM and its inverse from scratch; returns log|det|."""
        with METRICS.scope("DetUpdate"):
            n = self.nel
            A = np.empty((n, n), dtype=np.float64)
            dA = np.empty((n, n, 3), dtype=np.float64)
            d2A = np.empty((n, n), dtype=np.float64)
            for i in range(n):
                v, g, l = self.spo.evaluate_vgl(P.R[self.first + i])
                A[i] = v[: n]
                dA[i] = g[: n]
                d2A[i] = l[: n]
            sign, logdet = np.linalg.slogdet(A)
            if sign == 0:
                raise np.linalg.LinAlgError("singular Slater matrix")
            Ainv = np.linalg.inv(A)
            self.psiM[...] = A
            self.psiM_inv[...] = Ainv
            self.dpsiM[...] = dA
            self.d2psiM[...] = d2A
            self.log_abs_det = float(logdet)
            self.sign_det = float(sign)
            METRICS.record(flops=2.0 * n ** 3,
                           rbytes=8.0 * n * n, wbytes=8.0 * n * n * 5)
            return self.log_abs_det

    # -- the inverse the ratios read ---------------------------------------------------
    def _column(self, i: int) -> np.ndarray:
        """Column i of the current A^-1, in float64."""
        return self.psiM_inv[:, i].astype(np.float64, copy=False)

    def _columns(self, cols: np.ndarray) -> np.ndarray:
        """The A^-1 columns ``cols`` as one (nel, len(cols)) float64 block."""
        return self.psiM_inv.astype(np.float64, copy=False)[:, cols]

    # -- WaveFunctionComponent API ----------------------------------------------------
    def evaluate_log(self, P) -> float:
        """Recompute and accumulate gradient/Laplacian of log|det| into P."""
        logdet = self.recompute(P)
        self.evaluate_gl(P)
        return logdet

    def evaluate_gl(self, P) -> None:
        """Grad/lap of log|det| from the current (SM-updated) matrices."""
        with METRICS.scope("SPO-vgl"):
            n = self.nel
            Ainv = self.psiM_inv.astype(np.float64, copy=False)
            # grad_i log det = sum_j dpsi[i, j] Ainv[j, i]
            G = np.einsum("ijd,ji->id", self.dpsiM.astype(np.float64,
                                                          copy=False), Ainv)
            lap_term = np.einsum("ij,ji->i",
                                 self.d2psiM.astype(np.float64, copy=False),
                                 Ainv)
            L = lap_term - np.sum(G * G, axis=1)
            P.G[self.first:self.last] += G
            P.L[self.first:self.last] += L
            METRICS.record(flops=8.0 * n * n, rbytes=40.0 * n * n,
                           wbytes=32.0 * n)

    def grad(self, P, k: int) -> np.ndarray:
        """grad_k log|det| at the current position, from stored matrices."""
        if not self.owns(k):
            return np.zeros(3)
        i = k - self.first
        with METRICS.scope("DetUpdate"):
            g = self.dpsiM[i].astype(np.float64, copy=False).T @ \
                self._column(i)
            METRICS.record(flops=6.0 * self.nel,
                           rbytes=4.0 * 8 * self.nel, wbytes=24.0)
            return g

    def ratio(self, P, k: int) -> float:
        """det ratio for the proposed move of electron k (Eq. 6)."""
        if not self.owns(k):
            return 1.0
        i = k - self.first
        v = self.spo.evaluate_v(P.active_pos)[: self.nel]
        with METRICS.scope("DetUpdate"):
            rho = active().det_ratio(np.asarray(v, dtype=np.float64),
                                     self._column(i))
            self._cache[k] = (v, None, None, rho)
            METRICS.record(flops=2.0 * self.nel,
                           rbytes=self.dtype.itemsize * 2.0 * self.nel,
                           wbytes=8.0)
            return rho

    # -- ratio-only "virtual move" API (NLPP quadrature; Sec. 3 Eq. 4/7) ----------
    def ratio_at(self, P, k: int, r_new: np.ndarray) -> float:
        """det ratio for electron ``k`` virtually at ``r_new``.

        Sherman-Morrison row formula ``phi(r_new) . A^-1[:, i]`` with no
        rank-1 update and no cache entry: walker state (``psiM_inv``,
        ``_cache``, distance tables) is left untouched, so thousands of
        quadrature-point ratios never pay the move/reject round-trip.
        """
        if not self.owns(k):
            return 1.0
        i = k - self.first
        v = self.spo.evaluate_v(np.asarray(r_new, dtype=np.float64))[: self.nel]
        with METRICS.scope("DetUpdate"):
            rho = active().det_ratio(np.asarray(v, dtype=np.float64),
                                     self._column(i))
            METRICS.record(flops=2.0 * self.nel,
                           rbytes=self.dtype.itemsize * 2.0 * self.nel,
                           wbytes=8.0)
            return rho

    def ratios_vp(self, P, owners: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`ratio_at` over a virtual-particle slab.

        ``owners[m]`` is the electron whose virtual position is
        ``positions[m]``; returns the ``(Nvp,)`` float64 det ratios (1.0
        for electrons outside this spin block).  One batched SPO value
        gather feeds a single einsum against the A^-1 columns.
        """
        owners = np.asarray(owners)
        pos = np.asarray(positions, dtype=np.float64)
        rho = np.ones(len(owners), dtype=np.float64)
        idx = np.nonzero((owners >= self.first) & (owners < self.last))[0]
        if idx.size == 0:
            return rho
        spline = getattr(self.spo, "spline", None)
        if spline is not None and getattr(self.spo, "layout", "") == "soa":
            from repro.batched.spo import batched_multi_v
            with METRICS.scope("Bspline-v"):
                phi = np.asarray(batched_multi_v(spline, pos[idx]),
                                 dtype=np.float64)[:, : self.nel]
        else:
            phi = np.empty((idx.size, self.nel), dtype=np.float64)
            for m, j in enumerate(idx):
                phi[m] = np.asarray(self.spo.evaluate_v(pos[j])[: self.nel],
                                    dtype=np.float64)
        with METRICS.scope("DetUpdate"):
            cols = self._columns(owners[idx] - self.first)
            rho[idx] = np.asarray(active().det_ratios_vp(phi, cols))
            npts = idx.size
            METRICS.record(flops=2.0 * self.nel * npts,
                           rbytes=self.dtype.itemsize * 2.0 * self.nel * npts,
                           wbytes=8.0 * npts)
        return rho

    def ratio_grad(self, P, k: int):
        """(det ratio, grad of log|det| at the proposed position)."""
        if not self.owns(k):
            return 1.0, np.zeros(3)
        i = k - self.first
        v, g, l = self.spo.evaluate_vgl(P.active_pos)
        v, g, l = v[: self.nel], g[: self.nel], l[: self.nel]
        with METRICS.scope("DetUpdate"):
            col = self._column(i)
            rho = active().det_ratio(np.asarray(v, dtype=np.float64), col)
            grad = (np.asarray(g, dtype=np.float64).T @ col) / rho
            self._cache[k] = (v, g, l, rho)
            METRICS.record(flops=8.0 * self.nel,
                           rbytes=self.dtype.itemsize * 5.0 * self.nel,
                           wbytes=32.0)
            return rho, grad

    def accept_move(self, P, k: int) -> None:
        """Sherman-Morrison rank-1 update of A^-1 (the DetUpdate kernel)."""
        if not self.owns(k):
            return
        i = k - self.first
        v, g, l, rho = self._cache.pop(k)
        if g is None:
            # ratio() was called without gradients (e.g. a no-drift VMC
            # move); fetch them now so dpsiM/d2psiM stay current for the
            # measurement-time evaluate_gl.
            _, g, l = self.spo.evaluate_vgl(P.active_pos)
            g, l = g[: self.nel], l[: self.nel]
        with METRICS.scope("DetUpdate"):
            n = self.nel
            Ainv = self.psiM_inv
            v_t = np.asarray(v, dtype=self.dtype)
            # w^T A^-1 = v^T A^-1 - e_i^T;  A'^-1 = A^-1 - (A^-1 e_i)(w^T A^-1)/rho
            vAinv = v_t @ Ainv
            vAinv[i] -= 1.0
            col = Ainv[:, i].copy()
            Ainv -= np.outer(col, vAinv) / self.dtype.type(rho)
            self.psiM[i] = v_t
            self.dpsiM[i] = np.asarray(g, dtype=self.dtype)
            self.d2psiM[i] = np.asarray(l, dtype=self.dtype)
            self.log_abs_det += float(np.log(abs(rho)))
            if rho < 0:
                self.sign_det = -self.sign_det
            METRICS.record(flops=4.0 * n * n,
                           rbytes=self.dtype.itemsize * 2.0 * n * n,
                           wbytes=self.dtype.itemsize * n * n)

    def reject_move(self, P, k: int) -> None:
        self._cache.pop(k, None)

    # -- walker buffer -------------------------------------------------------------------
    def register_data(self, P, buf) -> None:
        buf.register(self.psiM_inv)
        buf.register(self.dpsiM)
        buf.register(self.d2psiM)

    def update_buffer(self, P, buf) -> None:
        buf.put(self.psiM_inv)
        buf.put(self.dpsiM)
        buf.put(self.d2psiM)

    def copy_from_buffer(self, P, buf) -> None:
        buf.get(self.psiM_inv)
        buf.get(self.dpsiM)
        buf.get(self.d2psiM)

    @property
    def storage_bytes(self) -> int:
        return (self.psiM.nbytes + self.psiM_inv.nbytes
                + self.dpsiM.nbytes + self.d2psiM.nbytes)
