"""Uniform-grid 1D cubic B-splines with value/derivative evaluation.

The spline is f(r) = sum_i c_i B_i(r) with n+3 coefficients over n
intervals on [x0, x1].  The scalar (Ref) evaluators use the standard
cubic B-spline segment matrix; the vectorized ones a per-interval
monomial table built from it once.  Fitting interpolates data at the
n+1 knots plus two end-derivative (clamped) conditions, solved densely
(functor grids are small, so exactness beats asymptotics here).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backend import active

# Segment basis matrix: row dot (1, u, u^2, u^3) gives B_{i..i+3}(u)/6.
_A = np.array([
    [1.0, -3.0, 3.0, -1.0],
    [4.0, 0.0, -6.0, 3.0],
    [1.0, 3.0, 3.0, -3.0],
    [0.0, 0.0, 0.0, 1.0],
]) / 6.0

_dA = np.array([
    [-3.0, 6.0, -3.0],
    [0.0, -12.0, 9.0],
    [3.0, 6.0, -9.0],
    [0.0, 0.0, 3.0],
]) / 6.0

_d2A = np.array([
    [6.0, -6.0],
    [-12.0, 18.0],
    [6.0, -18.0],
    [0.0, 6.0],
]) / 6.0


class CubicBSpline1D:
    """Cubic B-spline on a uniform grid over [x0, x1]."""

    def __init__(self, x0: float, x1: float, coefs: np.ndarray):
        if x1 <= x0:
            raise ValueError("x1 must exceed x0")
        coefs = np.asarray(coefs, dtype=np.float64)
        if coefs.ndim != 1 or coefs.size < 4:
            raise ValueError("need at least 4 coefficients")
        self.x0 = float(x0)
        self.x1 = float(x1)
        self.coefs = coefs
        self.n = coefs.size - 3  # number of intervals
        self.h = (self.x1 - self.x0) / self.n
        # Monomial table: column i is a0..a3 of interval i (coefs[i:i+4]
        # @ _A, summed elementwise in k order, no BLAS path); column n is
        # the zero tail the functor kernels clamp the cutoff onto.
        poly = np.zeros((4, self.n + 1))
        for k in range(4):
            poly[:, :-1] += _A[k][:, None] * coefs[k:k + self.n]
        poly.setflags(write=False)
        self.poly = poly

    # -- fitting -------------------------------------------------------------------
    @classmethod
    def interpolate(cls, x0: float, x1: float, values: np.ndarray,
                    deriv0: float = 0.0, deriv1: float = 0.0) -> "CubicBSpline1D":
        """Clamped interpolation: match ``values`` at the n+1 uniform knots
        and the first derivative at both ends."""
        values = np.asarray(values, dtype=np.float64)
        npts = values.size
        if npts < 2:
            raise ValueError("need at least 2 data points")
        n = npts - 1
        h = (x1 - x0) / n
        m = n + 3
        # Interior rows are (1/6, 4/6, 1/6); the first and last rows impose
        # the end derivatives via (-1/(2h), 0, 1/(2h)).  Functor grids have
        # tens of knots, so a dense solve is fine and exact.
        rhs = np.zeros(m)
        A = np.zeros((m, m))
        A[0, 0], A[0, 2] = -1.0 / (2 * h), 1.0 / (2 * h)
        rhs[0] = deriv0
        for i in range(npts):
            A[i + 1, i] = 1.0 / 6.0
            A[i + 1, i + 1] = 4.0 / 6.0
            A[i + 1, i + 2] = 1.0 / 6.0
            rhs[i + 1] = values[i]
        A[m - 1, m - 3], A[m - 1, m - 1] = -1.0 / (2 * h), 1.0 / (2 * h)
        rhs[m - 1] = deriv1
        coefs = np.linalg.solve(A, rhs)
        return cls(x0, x1, coefs)

    @classmethod
    def from_function(cls, f: Callable, x0: float, x1: float, npts: int,
                      deriv0: float | None = None,
                      deriv1: float | None = None) -> "CubicBSpline1D":
        """Interpolate a callable on ``npts`` uniform knots; end derivatives
        default to centered finite differences of ``f``."""
        xs = np.linspace(x0, x1, npts)
        vals = np.array([f(x) for x in xs], dtype=np.float64)
        eps = (x1 - x0) * 1e-6
        if deriv0 is None:
            deriv0 = (f(x0 + eps) - f(x0)) / eps
        if deriv1 is None:
            deriv1 = (f(x1) - f(x1 - eps)) / eps
        return cls.interpolate(x0, x1, vals, deriv0, deriv1)

    # -- evaluation: vectorized (SoA path) --------------------------------------------
    def evaluate_v(self, r):
        """Values at point(s) r (vectorized). Scalar in, scalar out.

        The ``bspline1d_v`` kernel gathers interval ``i``'s column of
        ``poly`` (i clamped to [0, n - 1], so it extrapolates) and runs
        one elementwise Horner ``a0 + u(a1 + u(a2 + u a3))``: exactly
        rounded ops, bitwise independent of batch length and strides (a
        GEMM would break the cross-batch-width contract,
        docs/parallel_crowds.md); within rounding of
        :meth:`evaluate_v_scalar`, not bitwise.
        """
        scalar = np.ndim(r) == 0
        v = np.asarray(active().bspline1d_v(
            self.poly, self.x0, self.h, np.atleast_1d(r)))
        return float(v[0]) if scalar else v

    def evaluate_vgl(self, r):
        """(value, d/dr, d2/dr2) at point(s) r (vectorized).

        The same gather as :meth:`evaluate_v`; the derivatives come from
        the same four coefficients, ``(a1 + u(2 a2 + 3 a3 u)) / h`` and
        ``(2 a2 + 6 a3 u) / h**2``.
        """
        scalar = np.ndim(r) == 0
        v, dv, d2v = active().bspline1d_vgl(
            self.poly, self.x0, self.h, np.atleast_1d(r))
        if scalar:
            return float(v[0]), float(dv[0]), float(d2v[0])
        return np.asarray(v), np.asarray(dv), np.asarray(d2v)

    # -- evaluation: scalar (AoS/ref path) ------------------------------------------------
    def evaluate_v_scalar(self, r: float) -> float:
        """Value at one point via pure-Python Horner loops (the Ref kernel)."""
        t = (r - self.x0) / self.h
        i = int(t)
        if i < 0:
            i = 0
        elif i > self.n - 1:
            i = self.n - 1
        u = t - i
        c = self.coefs
        total = 0.0
        for k in range(4):
            row = _A[k]
            b = row[0] + u * (row[1] + u * (row[2] + u * row[3]))
            total += c[i + k] * b
        return total

    def evaluate_vgl_scalar(self, r: float):
        """(value, d/dr, d2/dr2) at one point via pure-Python loops."""
        t = (r - self.x0) / self.h
        i = int(t)
        if i < 0:
            i = 0
        elif i > self.n - 1:
            i = self.n - 1
        u = t - i
        c = self.coefs
        v = dv = d2v = 0.0
        for k in range(4):
            b = _A[k][0] + u * (_A[k][1] + u * (_A[k][2] + u * _A[k][3]))
            db = _dA[k][0] + u * (_dA[k][1] + u * _dA[k][2])
            d2b = _d2A[k][0] + u * _d2A[k][1]
            ck = c[i + k]
            v += ck * b
            dv += ck * db
            d2v += ck * d2b
        return v, dv / self.h, d2v / (self.h * self.h)
