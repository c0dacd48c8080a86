"""TrialWaveFunction: the product of wavefunction components.

Every component implements the same protocol (the paper's redesigned
member functions with "clearly defined roles for move, accept/reject and
measurement", Sec. 7.5):

* ``evaluate_log(P)``   — full recompute; accumulates grad/lap into P
* ``evaluate_gl(P)``    — grad/lap from current internal state (no
                          recompute; used at measurement time)
* ``grad(P, k)``        — gradient at the current position (drift)
* ``ratio(P, k)``       — Psi(R')/Psi(R) for the active move
* ``ratio_grad(P, k)``  — ratio plus gradient at the proposed position
* ``accept_move(P, k)`` / ``reject_move(P, k)``
* buffer methods for per-walker state (``register_data`` /
  ``update_buffer`` / ``copy_from_buffer``)

Protocol ordering: the driver must call ``twf.accept_move(P, k)``
*before* ``P.accept_move(k)`` — components consume the distance tables'
temporaries, which the ParticleSet invalidates when it commits.
"""

from __future__ import annotations

from typing import List

import numpy as np


class TrialWaveFunction:
    """Product wavefunction over registered components."""

    def __init__(self, components: List):
        if not components:
            raise ValueError("need at least one component")
        self.components = list(components)
        self.log_value: float = 0.0

    # -- full evaluation --------------------------------------------------------
    def evaluate_log(self, P) -> float:
        """Recompute everything; fills P.G and P.L from zero."""
        P.G[...] = 0.0
        P.L[...] = 0.0
        self.log_value = 0.0
        for c in self.components:
            self.log_value += c.evaluate_log(P)
        return self.log_value

    def evaluate_gl(self, P) -> None:
        """Gradients/Laplacians from current component state (measurement)."""
        P.G[...] = 0.0
        P.L[...] = 0.0
        for c in self.components:
            c.evaluate_gl(P)

    # -- PbyP --------------------------------------------------------------------
    def grad(self, P, k: int) -> np.ndarray:
        g = np.zeros(3)
        for c in self.components:
            g += c.grad(P, k)
        return g

    def ratio(self, P, k: int) -> float:
        rho = 1.0
        for c in self.components:
            rho *= c.ratio(P, k)
        return rho

    # -- ratio-only "virtual move" API (NLPP quadrature) -------------------------
    def ratio_at(self, P, k: int, r_new) -> float:
        """Psi(..., r_new at k, ...)/Psi(R) without touching walker state.

        Unlike :meth:`ratio`, no ``make_move`` is required beforehand and
        no ``reject_move`` afterwards: every component computes from the
        committed state plus the explicit position.
        """
        rho = 1.0
        for c in self.components:
            rho *= c.ratio_at(P, k, r_new)
        return rho

    def ratios_vp(self, P, owners, positions) -> np.ndarray:
        """Vectorized :meth:`ratio_at` over a virtual-particle slab.

        Components exposing ``ratios_vp`` (SoA determinants, OTF
        Jastrows) get the whole ``(Nvp, 3)`` slab at once; the rest fall
        back to per-point ``ratio_at``.  Walker state is untouched.
        """
        owners = np.asarray(owners)
        pos = np.asarray(positions, dtype=np.float64)
        rho = np.ones(len(owners), dtype=np.float64)
        for c in self.components:
            fn = getattr(c, "ratios_vp", None)
            if fn is not None:
                rho *= np.asarray(fn(P, owners, pos), dtype=np.float64)
            else:
                for m in range(len(owners)):
                    rho[m] *= c.ratio_at(P, int(owners[m]), pos[m])
        return rho

    def ratio_grad(self, P, k: int):
        rho = 1.0
        g = np.zeros(3)
        for c in self.components:
            r, gc = c.ratio_grad(P, k)
            rho *= r
            g += gc
        return rho, g

    def accept_move(self, P, k: int, log_ratio: float | None = None) -> None:
        for c in self.components:
            c.accept_move(P, k)
        if log_ratio is not None:
            self.log_value += log_ratio

    def reject_move(self, P, k: int) -> None:
        for c in self.components:
            c.reject_move(P, k)

    # -- walker buffer ----------------------------------------------------------------
    def register_data(self, P, buf) -> None:
        for c in self.components:
            c.register_data(P, buf)
        buf.seal()

    def update_buffer(self, P, buf) -> None:
        buf.rewind()
        for c in self.components:
            c.update_buffer(P, buf)

    def copy_from_buffer(self, P, buf) -> None:
        buf.rewind()
        for c in self.components:
            c.copy_from_buffer(P, buf)

    # -- bookkeeping ---------------------------------------------------------------------
    @property
    def storage_bytes(self) -> int:
        """Per-walker wavefunction state (what Fig. 8/9's memory tracks)."""
        return sum(c.storage_bytes for c in self.components)
