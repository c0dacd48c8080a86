"""Multi-Slater-determinant expansion (the ref [20] wavefunction form).

    Psi_MSD = sum_d c_d det A_d,     A_d[i, j] = phi_{occ_d[j]}(r_i)

Each determinant selects an occupation (a tuple of orbital indices) out
of a shared SPO set; the expansion captures static correlation beyond a
single determinant (the paper's Sec. 3 determinant-lemma machinery is
reused per determinant, with one shared orbital evaluation per move —
the same table-method structure QMCPACK's multideterminant code uses).

PbyP algebra: with per-determinant inverses, each move costs one SPO
evaluation plus one dot product per determinant

    rho_d = v[occ_d] . A_d^{-1}[:, i]
    rho   = sum_d w_d rho_d / sum_d w_d,   w_d = c_d * det A_d

with the w_d tracked in log space for stability.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.metrics.registry import METRICS
from repro.perfmodel.opcount import OPS


class _SubDet:
    """Per-determinant state: occupation, inverse, log|det|, sign."""

    def __init__(self, occ: Tuple[int, ...], nel: int):
        if len(occ) != nel:
            raise ValueError(f"occupation {occ} must have {nel} orbitals")
        if len(set(occ)) != nel:
            raise ValueError(f"occupation {occ} repeats an orbital")
        self.occ = np.asarray(occ, dtype=np.int64)
        self.inv = np.zeros((nel, nel))
        self.logdet = 0.0
        self.sign = 1.0


class MultiSlaterDeterminant:
    """CI expansion over determinants of one spin block."""

    name = "MultiDet"

    def __init__(self, spo, first: int, last: int,
                 occupations: Sequence[Tuple[int, ...]],
                 coefficients: Sequence[float]):
        self.spo = spo
        self.first = first
        self.last = last
        self.nel = last - first
        if self.nel <= 0:
            raise ValueError("determinant needs at least one electron")
        if len(occupations) != len(coefficients) or not occupations:
            raise ValueError("need matching, non-empty occupations and "
                             "coefficients")
        max_orb = max(max(occ) for occ in occupations)
        if spo.norb <= max_orb:
            raise ValueError(f"occupations reference orbital {max_orb}, "
                             f"SPO set has {spo.norb}")
        self.dets = [_SubDet(tuple(o), self.nel) for o in occupations]
        self.coefs = np.asarray(coefficients, dtype=np.float64)
        # Per-electron value/grad/lap of all referenced orbitals.
        self.norb_used = max_orb + 1
        self.phi = np.zeros((self.nel, self.norb_used))
        self.dphi = np.zeros((self.nel, self.norb_used, 3))
        self.d2phi = np.zeros((self.nel, self.norb_used))
        self.log_ref = 0.0  # log-scale reference for the w_d
        self._cache: dict = {}

    def owns(self, k: int) -> bool:
        return self.first <= k < self.last

    # -- weights ----------------------------------------------------------------
    def _weights(self) -> np.ndarray:
        """w_d = c_d sign_d exp(logdet_d - log_ref), with log_ref chosen
        as the running max logdet for stability."""
        logs = np.array([d.logdet for d in self.dets])
        self.log_ref = float(np.max(logs))
        return self.coefs * np.array([d.sign for d in self.dets]) \
            * np.exp(logs - self.log_ref)

    # -- full recompute ------------------------------------------------------------
    def recompute(self, P) -> float:
        with METRICS.scope("DetUpdate"):
            n = self.nel
            for i in range(n):
                v, g, l = self.spo.evaluate_vgl(P.R[self.first + i])
                self.phi[i] = v[: self.norb_used]
                self.dphi[i] = g[: self.norb_used]
                self.d2phi[i] = l[: self.norb_used]
            for d in self.dets:
                A = self.phi[:, d.occ]
                sign, logdet = np.linalg.slogdet(A)
                if sign == 0:
                    raise np.linalg.LinAlgError("singular determinant "
                                                f"occ={tuple(d.occ)}")
                d.inv = np.linalg.inv(A)
                d.logdet = float(logdet)
                d.sign = float(sign)
                OPS.record("DetUpdate", flops=2.0 * n ** 3,
                           rbytes=8.0 * n * n, wbytes=8.0 * n * n)
            w = self._weights()
            total = float(np.sum(w))
            if total == 0.0:
                raise FloatingPointError("CI expansion sums to zero")
            self._log_value = float(np.log(abs(total))) + self.log_ref
            self._sign_value = float(np.sign(total))
            return self._log_value

    # -- component protocol ------------------------------------------------------------
    def evaluate_log(self, P) -> float:
        logv = self.recompute(P)
        self.evaluate_gl(P)
        return logv

    def evaluate_gl(self, P) -> None:
        """Accumulate grad/lap of log Psi_MSD into P.G / P.L."""
        with METRICS.scope("SPO-vgl"):
            w = self._weights()
            wsum = float(np.sum(w))
            omega = w / wsum
            n = self.nel
            Gpsi = np.zeros((n, 3))  # grad Psi / Psi
            Lpsi = np.zeros(n)       # lap Psi / Psi
            for d, om in zip(self.dets, omega):
                # Row-linear cofactor expansions give, per electron i:
                #   grad_i det_d / det_d = sum_j dphi[i, occ_j] inv[j, i]
                #   lap_i  det_d / det_d = sum_j d2phi[i, occ_j] inv[j, i]
                Gd = np.einsum("ijd,ji->id", self.dphi[:, d.occ, :], d.inv)
                Ld = np.einsum("ij,ji->i", self.d2phi[:, d.occ], d.inv)
                Gpsi += om * Gd
                Lpsi += om * Ld
            P.G[self.first:self.last] += Gpsi
            P.L[self.first:self.last] += Lpsi - np.sum(Gpsi * Gpsi,
                                                       axis=1)

    def grad(self, P, k: int) -> np.ndarray:
        if not self.owns(k):
            return np.zeros(3)
        i = k - self.first
        w = self._weights()
        wsum = float(np.sum(w))
        g = np.zeros(3)
        for d, wd in zip(self.dets, w):
            gd = self.dphi[i, d.occ, :].T @ d.inv[:, i]
            g += (wd / wsum) * gd
        return g

    def ratio(self, P, k: int) -> float:
        if not self.owns(k):
            return 1.0
        i = k - self.first
        v = self.spo.evaluate_v(P.active_pos)[: self.norb_used]
        with METRICS.scope("DetUpdate"):
            w = self._weights()
            rhos = np.array([float(v[d.occ] @ d.inv[:, i])
                             for d in self.dets])
            rho = float(np.sum(w * rhos) / np.sum(w))
            self._cache[k] = (v, None, None, rhos)
            OPS.record("DetUpdate", flops=2.0 * self.nel * len(self.dets),
                       rbytes=16.0 * self.nel * len(self.dets),
                       wbytes=8.0)
            return rho

    def ratio_grad(self, P, k: int):
        if not self.owns(k):
            return 1.0, np.zeros(3)
        i = k - self.first
        v, g, l = self.spo.evaluate_vgl(P.active_pos)
        v = v[: self.norb_used]
        g = g[: self.norb_used]
        l = l[: self.norb_used]
        with METRICS.scope("DetUpdate"):
            w = self._weights()
            rhos = np.array([float(v[d.occ] @ d.inv[:, i])
                             for d in self.dets])
            num = w * rhos
            rho = float(np.sum(num) / np.sum(w))
            # grad Psi'/Psi' = sum_d w_d det'_d grad'_d / sum_d w_d det'_d;
            # by the lemma grad'_d = (g . inv)_d / rho_d, so the rho_d in
            # the weight cancels: numerator terms are w_d (g . inv)_d.
            grad = np.zeros(3)
            for d, wd in zip(self.dets, w):
                grad += wd * (g[d.occ, :].T @ d.inv[:, i])
            denom = float(np.sum(num))
            grad = grad / denom if denom != 0 else np.zeros(3)
            self._cache[k] = (v, g, l, rhos)
            return rho, grad

    def accept_move(self, P, k: int) -> None:
        if not self.owns(k):
            return
        i = k - self.first
        v, g, l, rhos = self._cache.pop(k)
        if g is None:
            _, g, l = self.spo.evaluate_vgl(P.active_pos)
            g = g[: self.norb_used]
            l = l[: self.norb_used]
        with METRICS.scope("DetUpdate"):
            for d, rho_d in zip(self.dets, rhos):
                vd = v[d.occ]
                vAinv = vd @ d.inv
                vAinv[i] -= 1.0
                col = d.inv[:, i].copy()
                d.inv -= np.outer(col, vAinv) / rho_d
                d.logdet += float(np.log(abs(rho_d)))
                if rho_d < 0:
                    d.sign = -d.sign
                OPS.record("DetUpdate", flops=4.0 * self.nel ** 2,
                           rbytes=16.0 * self.nel ** 2,
                           wbytes=8.0 * self.nel ** 2)
            self.phi[i] = v
            self.dphi[i] = g
            self.d2phi[i] = l

    def reject_move(self, P, k: int) -> None:
        self._cache.pop(k, None)

    # -- walker buffer ----------------------------------------------------------------
    def register_data(self, P, buf) -> None:
        for d in self.dets:
            buf.register(d.inv)
            buf.register(np.array([d.logdet, d.sign]))
        buf.register(self.phi)
        buf.register(self.dphi)
        buf.register(self.d2phi)

    def update_buffer(self, P, buf) -> None:
        for d in self.dets:
            buf.put(d.inv)
            buf.put(np.array([d.logdet, d.sign]))
        buf.put(self.phi)
        buf.put(self.dphi)
        buf.put(self.d2phi)

    def copy_from_buffer(self, P, buf) -> None:
        for d in self.dets:
            buf.get(d.inv)
            meta = np.zeros(2)
            buf.get(meta)
            d.logdet, d.sign = float(meta[0]), float(meta[1])
        buf.get(self.phi)
        buf.get(self.dphi)
        buf.get(self.d2phi)

    @property
    def storage_bytes(self) -> int:
        per_det = self.nel * self.nel * 8
        shared = self.phi.nbytes + self.dphi.nbytes + self.d2phi.nbytes
        return len(self.dets) * per_det + shared
