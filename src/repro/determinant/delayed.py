"""Delayed (Woodbury) determinant update — the Sec. 8.4 outlook scheme.

Accepted row replacements are accumulated instead of applied one by one;
ratios against the implicitly-updated inverse cost O(N k) with k pending
rows, and every ``delay`` acceptances the whole block is folded into
A^-1 with matrix-matrix products (BLAS3) instead of ``delay`` separate
rank-1 BLAS2 updates:

    A' = A + E W^T,   E = [e_p1 ... e_pk],  W = [w_1 ... w_k]
    A'^-1 = A^-1 - (A^-1 E) (I + W^T A^-1 E)^-1 (W^T A^-1)

The physics is identical to Sherman-Morrison (tests assert bitwise-close
inverses); the benefit is purely computational, growing with N — which
the ablation benchmark demonstrates.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.registry import METRICS


class DelayedUpdateEngine:
    """Wraps an inverse matrix with delayed rank-k updates.

    Usage: ``ratio_column(q)`` gives the column A'^-1 e_q reflecting all
    pending updates; ``accept(q, v_new)`` queues a row replacement;
    ``flush()`` folds pending updates into the stored inverse.
    """

    def __init__(self, a_inv: np.ndarray, delay: int = 8):
        if delay < 1:
            raise ValueError("delay must be >= 1")
        a_inv = np.asarray(a_inv, dtype=np.float64)
        n = a_inv.shape[0]
        if a_inv.shape != (n, n):
            raise ValueError("a_inv must be square")
        self.n = n
        self.delay = delay
        self.a_inv = a_inv.copy()
        # Pending update storage.
        self._rows: list[int] = []          # p_m
        self._ainv_e: list[np.ndarray] = [] # columns A^-1 e_{p_m}
        self._wt_ainv: list[np.ndarray] = []# rows w_m^T A^-1
        self._w: list[np.ndarray] = []      # w_m themselves (for M updates)

    @property
    def pending(self) -> int:
        return len(self._rows)

    # -- internals ---------------------------------------------------------------
    def _m_matrix(self) -> np.ndarray:
        """I + W^T A^-1 E for the pending block."""
        k = self.pending
        M = np.eye(k)
        for a in range(k):
            wt_ainv = self._wt_ainv[a]
            for b in range(k):
                M[a, b] += wt_ainv[self._rows[b]]
        return M

    def effective_column(self, q: int) -> np.ndarray:
        """Column q of the effective inverse A'^-1 (with pending updates)."""
        col = self.a_inv[:, q].copy()
        k = self.pending
        if k == 0:
            return col
        with METRICS.scope("DetUpdate"):
            # A'^-1 e_q = A^-1 e_q - (A^-1 E) M^-1 (W^T A^-1 e_q)
            wt_col = np.array([w[q] for w in self._wt_ainv])  # (k,)
            M = self._m_matrix()
            y = np.linalg.solve(M, wt_col)
            for a in range(k):
                col -= self._ainv_e[a] * y[a]
            METRICS.record(flops=2.0 * self.n * k + 2.0 * k ** 3,
                           rbytes=8.0 * self.n * (k + 1), wbytes=8.0 * self.n)
        return col

    def effective_inverse(self) -> np.ndarray:
        """Materialize A'^-1 including pending updates (for tests)."""
        out = self.a_inv.copy()
        k = self.pending
        if k == 0:
            return out
        AE = np.stack(self._ainv_e, axis=1)       # (n, k)
        WA = np.stack(self._wt_ainv, axis=0)      # (k, n)
        M = self._m_matrix()
        return out - AE @ np.linalg.solve(M, WA)

    # -- update protocol ------------------------------------------------------------
    def ratio(self, q: int, v_new: np.ndarray) -> float:
        """Determinant ratio for replacing row q with v_new."""
        col = self.effective_column(q)
        return float(np.asarray(v_new, dtype=np.float64) @ col)

    def accept(self, q: int, v_new: np.ndarray, a_row_old: np.ndarray) -> None:
        """Queue the replacement of row q (old contents ``a_row_old``)."""
        if q in self._rows:
            # Same row replaced twice within a delay window: flush first
            # (the simple variant QMCPACK's delayed update also uses).
            self.flush()
        w = np.asarray(v_new, dtype=np.float64) - np.asarray(a_row_old,
                                                             dtype=np.float64)
        self._rows.append(q)
        self._ainv_e.append(self.a_inv[:, q].copy())
        self._wt_ainv.append(w @ self.a_inv)
        self._w.append(w)
        if self.pending >= self.delay:
            self.flush()

    def flush(self) -> None:
        """Fold pending updates into the stored inverse (BLAS3 step)."""
        k = self.pending
        if k == 0:
            return
        with METRICS.scope("DetUpdate"):
            AE = np.stack(self._ainv_e, axis=1)
            WA = np.stack(self._wt_ainv, axis=0)
            M = self._m_matrix()
            self.a_inv -= AE @ np.linalg.solve(M, WA)
            METRICS.record(flops=2.0 * self.n * self.n * k + 2.0 * k ** 3,
                           rbytes=8.0 * (self.n * self.n + 2 * self.n * k),
                           wbytes=8.0 * self.n * self.n)
        self._rows.clear()
        self._ainv_e.clear()
        self._wt_ainv.clear()
        self._w.clear()
