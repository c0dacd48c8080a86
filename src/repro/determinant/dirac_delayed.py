"""DiracDeterminant variant using the delayed (Woodbury) update engine.

Sec. 8.4 proposes delaying accepted-row updates so that A^-1 is folded
with rank-k BLAS3 blocks instead of per-move BLAS2 rank-1 updates.  This
class is a drop-in replacement for :class:`DiracDeterminant` inside a
TrialWaveFunction: ratios are evaluated against the implicitly-updated
inverse; the pending block is flushed when full, when a gradient/GL
evaluation needs the materialized inverse, or at recompute time.
"""

from __future__ import annotations

import numpy as np

from repro.determinant.delayed import DelayedUpdateEngine
from repro.determinant.dirac import DiracDeterminant
from repro.metrics.registry import METRICS


class DiracDeterminantDelayed(DiracDeterminant):
    """Slater determinant block with delayed rank-k inverse updates."""

    def __init__(self, spo, first: int, last: int, delay: int = 8,
                 dtype=np.float64):
        super().__init__(spo, first, last, dtype=dtype)
        self.delay = delay
        self._engine: DelayedUpdateEngine | None = None

    # -- engine lifecycle --------------------------------------------------------
    def _ensure_engine(self) -> DelayedUpdateEngine:
        if self._engine is None:
            self._engine = DelayedUpdateEngine(
                self.psiM_inv.astype(np.float64, copy=False),
                delay=self.delay)
        return self._engine

    def _sync_from_engine(self) -> None:
        """Flush pending updates and copy the inverse back to storage."""
        if self._engine is not None:
            self._engine.flush()
            self.psiM_inv[...] = self._engine.a_inv.astype(self.dtype)

    # -- overridden protocol -------------------------------------------------------
    def recompute(self, P) -> float:
        logdet = super().recompute(P)
        self._engine = None  # rebuilt lazily from the fresh inverse
        return logdet

    def evaluate_gl(self, P) -> None:
        self._sync_from_engine()
        self._engine = None
        super().evaluate_gl(P)

    def _column(self, i: int) -> np.ndarray:
        """Column i of the effective inverse, pending rows included: every
        ratio, the virtual-move ones too, reads through the window."""
        return self._ensure_engine().effective_column(i)

    def _columns(self, cols: np.ndarray) -> np.ndarray:
        return self._ensure_engine().effective_inverse()[:, cols]

    def accept_move(self, P, k: int) -> None:
        if not self.owns(k):
            return
        i = k - self.first
        v, g, l, rho = self._cache.pop(k)
        if g is None:
            _, g, l = self.spo.evaluate_vgl(P.active_pos)
            g, l = g[: self.nel], l[: self.nel]
        eng = self._ensure_engine()
        with METRICS.scope("DetUpdate"):
            eng.accept(i, np.asarray(v, dtype=np.float64),
                       self.psiM[i].astype(np.float64, copy=False))
            self.psiM[i] = np.asarray(v, dtype=self.dtype)
            self.dpsiM[i] = np.asarray(g, dtype=self.dtype)
            self.d2psiM[i] = np.asarray(l, dtype=self.dtype)
            self.log_abs_det += float(np.log(abs(rho)))
            if rho < 0:
                self.sign_det = -self.sign_det
        # Keep psiM_inv observable state loosely in sync when the engine
        # auto-flushed (pending == 0 right after a boundary flush).
        if eng.pending == 0:
            self.psiM_inv[...] = eng.a_inv.astype(self.dtype)

    # -- walker buffer: materialize before serializing ------------------------------
    def update_buffer(self, P, buf) -> None:
        self._sync_from_engine()
        super().update_buffer(P, buf)

    def copy_from_buffer(self, P, buf) -> None:
        super().copy_from_buffer(P, buf)
        self._engine = None
