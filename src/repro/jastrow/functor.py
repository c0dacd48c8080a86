"""Cutoff cubic-B-spline Jastrow functors.

A functor u(r) is a 1D cubic B-spline on [0, rcut] with u(rcut) = 0 and
u'(rcut) = 0 (so the pair function switches off smoothly at the cutoff,
producing the branchy masked loops the paper blames for Jastrow's
slightly-sub-ideal vectorization) and a cusp condition u'(0) = cusp.
The vectorized kernels have no such branch: the cutoff is the spline's
zero tail interval, which is why ``rcut`` must equal the spline's ``x1``.

:meth:`from_shape` synthesizes physically-shaped functors like Fig. 3's:
an exponential correlation hole with the exact cusp, smoothly clamped at
the cutoff.
"""

from __future__ import annotations

import numpy as np

from repro.backend import active
from repro.splines.cubic1d import CubicBSpline1D


class BsplineFunctor:
    """u(r) = spline(r) for r < rcut, else 0; with cusp u'(0)."""

    def __init__(self, spline: CubicBSpline1D, rcut: float, cusp: float = 0.0,
                 name: str = "u"):
        if rcut <= 0:
            raise ValueError("rcut must be positive")
        if float(rcut) != spline.x1:  # the kernels' zero tail starts at x1
            raise ValueError(f"rcut {rcut} must equal spline.x1 = "
                             f"{spline.x1}")
        self.spline = spline
        self.rcut = float(rcut)
        self.cusp = float(cusp)
        self.name = name

    # -- construction -------------------------------------------------------------
    @classmethod
    def from_shape(cls, rcut: float, cusp: float = 0.0, amplitude: float = 0.5,
                   decay: float = 1.0, npts: int = 20,
                   name: str = "u") -> "BsplineFunctor":
        """Synthesize a functor with exact cusp and smooth cutoff.

        Shape: ``u(r) = C (e^{-r/F} - e^{-rc/F}) (1 - (r/rc)^3)`` where the
        prefactor C is fixed by the cusp when ``cusp != 0`` (C = -cusp*F)
        and by ``amplitude`` (= u(0)) otherwise.
        """
        F = float(decay)
        rc = float(rcut)
        tail = np.exp(-rc / F)

        def base(r):
            return (np.exp(-r / F) - tail) * (1.0 - (r / rc) ** 3)

        if cusp != 0.0:
            C = -cusp * F
        else:
            b0 = base(0.0)
            C = amplitude / b0 if b0 != 0 else amplitude

        # Analytic end derivatives of the shape: u'(0) = -C/F (the cusp),
        # u'(rc) = 0 (both factors vanish there).
        spline = CubicBSpline1D.from_function(
            lambda r: C * base(r), 0.0, rc, npts,
            deriv0=-C / F, deriv1=0.0)
        return cls(spline, rc, cusp=-C / F, name=name)

    # -- vectorized evaluation (Current kernels) --------------------------------------
    def evaluate_v(self, r: np.ndarray) -> np.ndarray:
        """u(r), exactly zero at and beyond the cutoff, vectorized."""
        # Functor math runs in accumulation precision by design: spline
        # coefficients are double, and the 1D tables are tiny.
        s = self.spline
        return np.asarray(active().functor_v(s.poly, s.x0, s.h, self.rcut, r))

    def evaluate_vg(self, r: np.ndarray):
        """(u, du/dr): :meth:`evaluate_vgl` without the Laplacian channel,
        bitwise its first two results."""
        s = self.spline
        u, du = active().functor_vg(s.poly, s.x0, s.h, self.rcut, r)
        return np.asarray(u), np.asarray(du)

    def evaluate_vgl(self, r: np.ndarray):
        """(u, du/dr, d2u/dr2), each zero beyond the cutoff, vectorized."""
        s = self.spline
        u, du, d2u = active().functor_vgl(s.poly, s.x0, s.h, self.rcut, r)
        return np.asarray(u), np.asarray(du), np.asarray(d2u)

    # -- scalar evaluation (Ref kernels) --------------------------------------------------
    def evaluate_v_scalar(self, r: float) -> float:
        if r >= self.rcut:
            return 0.0
        return self.spline.evaluate_v_scalar(r)

    def evaluate_vgl_scalar(self, r: float):
        if r >= self.rcut:
            return 0.0, 0.0, 0.0
        return self.spline.evaluate_vgl_scalar(r)

    # -- for Fig. 3 ---------------------------------------------------------------------------
    def curve(self, npts: int = 101):
        """(r, u(r)) series for plotting the functor, as in Fig. 3."""
        r = np.linspace(0.0, self.rcut, npts)
        return r, self.evaluate_v(r)

    def __repr__(self) -> str:
        return (f"BsplineFunctor({self.name!r}, rcut={self.rcut:.3f}, "
                f"cusp={self.cusp:.3f})")
